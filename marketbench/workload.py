"""Seeded corpus and op-sequence generation for the market benchmark.

Everything a run sends is generated here, up front, from the workload seed,
so two checkouts given the same seed send byte-identical requests.  Nothing
in this module imports the market stack: the op sequences are plain tuples
and the corpus is plain ``(name, columns, rows)`` data.

The corpus is a set of independent *domains*.  Each domain owns a key column
over a key range no other domain uses, and a pool of attribute names no other
domain uses, so the join graph splits into one component per domain and a
write in one domain leaves the cached plans of the others valid.  A domain
mixes *tall* datasets (many rows, few attributes) with *wide* ones (few rows,
many attributes); attributes repeat across a domain's datasets, so a buyer's
attribute set has several candidate sources and the planner has join trees to
choose between.

Two random streams build every input.  The *shape* stream is the same for
every seed: names, which attributes each dataset carries, attribute dtypes,
registration and update order, the request pool, the Zipf draws and the
write schedule.  The *content* stream comes from the seed: every key, value
and wanted-key set.  Runs on different seeds therefore do the same amount of
work on different data, which keeps run-to-run spread down to host noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N_DOMAINS = 4
TALL_PER_DOMAIN = 5
WIDE_PER_DOMAIN = 3
TALL_ROWS = 600
TALL_ATTRS = 3
WIDE_ROWS = 170
WIDE_ATTRS = 10
ATTRS_PER_DOMAIN = 14
DTYPES = ("int", "float", "str")
#: keys a domain's datasets draw their rows from.  Tall datasets cover all
#: of it and wide ones a fixed share, so join-candidate decisions and join
#: sizes sit far from any threshold and do not change with the seed
KEY_UNIVERSE = TALL_ROWS
CATEGORIES = ("amber", "basalt", "cobalt", "dune", "ember", "fjord")

#: buyer principals of the shop workload
BUYERS = ("buyer0", "buyer1", "buyer2", "buyer3")
BUYER_FUNDING = 1_000_000.0
SELLER = "seller"

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Dataset:
    """One dataset as plain data: ``columns`` are ``(name, dtype)`` pairs."""

    name: str
    columns: tuple[tuple[str, str], ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class Domain:
    key: str
    attributes: tuple[str, ...]
    dtypes: dict
    base_key: int


@dataclass(frozen=True)
class Corpus:
    domains: tuple[Domain, ...]
    datasets: tuple[Dataset, ...]

    def domain_of(self, dataset: str) -> Domain:
        prefix = dataset.split("_", 1)[0]
        for domain in self.domains:
            if domain.key.split("_", 1)[0] == prefix:
                return domain
        raise KeyError(dataset)


def _shape(label: str) -> random.Random:
    """The seed-independent stream for one structural decision."""
    return random.Random(f"shape:{label}")


def _word(rng: random.Random, used: set[str]) -> str:
    """A fresh pronounceable word.  Random words keep column-name similarity
    between unrelated attributes low, so a request matches its own columns
    rather than half the corpus."""
    while True:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
            for _ in range(rng.randint(3, 4))
        )
        if word not in used:
            used.add(word)
            return word


def _value(rng: random.Random, dtype: str):
    if dtype == "int":
        return rng.randrange(0, 100_000)
    if dtype == "float":
        return round(rng.uniform(0.0, 1000.0), 2)
    return rng.choice(CATEGORIES)


def make_rows(
    rng: random.Random, domain: Domain, attrs, n_rows: int
) -> tuple[tuple, ...]:
    keys = sorted(rng.sample(range(KEY_UNIVERSE), n_rows))
    return tuple(
        (domain.base_key + k,)
        + tuple(_value(rng, domain.dtypes[a]) for a in attrs)
        for k in keys
    )


def make_corpus(seed: int, n_domains: int) -> Corpus:
    content = random.Random(f"corpus:{seed}")
    names = _shape("names")
    used: set[str] = set()
    domains = []
    datasets = []
    for d in range(n_domains):
        shape = _shape(f"domain:{d}")
        prefix = _word(names, used)
        attrs = tuple(_word(names, used) for _ in range(ATTRS_PER_DOMAIN))
        domain = Domain(
            key=f"{prefix}_id",
            attributes=attrs,
            dtypes={a: DTYPES[i % len(DTYPES)] for i, a in enumerate(attrs)},
            base_key=(d + 1) * 1_000_000,
        )
        domains.append(domain)
        shapes = (
            [("t", TALL_ATTRS, TALL_ROWS)] * TALL_PER_DOMAIN
            + [("w", WIDE_ATTRS, WIDE_ROWS)] * WIDE_PER_DOMAIN
        )
        for i, (kind, n_attrs, n_rows) in enumerate(shapes):
            slots = sorted(shape.sample(range(ATTRS_PER_DOMAIN), n_attrs))
            chosen = [attrs[s] for s in slots]
            datasets.append(Dataset(
                name=f"{prefix}_{kind}{i}",
                columns=((domain.key, "int"),)
                + tuple((a, domain.dtypes[a]) for a in chosen),
                rows=make_rows(content, domain, chosen, n_rows),
            ))
    return Corpus(tuple(domains), tuple(datasets))


def refreshed(
    rng: random.Random, corpus: Corpus, dataset: Dataset, fraction: float
) -> Dataset:
    """A new version of ``dataset``: ``fraction`` of its rows get fresh
    attribute values (same schema, same keys)."""
    n = len(dataset.rows)
    touched = set(rng.sample(range(n), max(1, int(n * fraction))))
    domain = corpus.domain_of(dataset.name)
    rows = tuple(
        (row[0],) + tuple(
            _value(rng, domain.dtypes[name]) for name, _ in dataset.columns[1:]
        ) if i in touched else row
        for i, row in enumerate(dataset.rows)
    )
    return Dataset(dataset.name, dataset.columns, rows)


# ---------------------------------------------------------------------------
# op sequences
# ---------------------------------------------------------------------------
# Ops are tuples whose first element names the op type:
#   ("register", Dataset)  ("update", Dataset)
#   ("search", attrs)  ("plan", attrs, key)  ("wtp", buyer, attrs, key, wanted)
#   ("round",)


def attribute_pool(
    label: str, corpus: Corpus, size: int
) -> list[tuple[tuple[str, ...], str]]:
    """``size`` distinct (attribute set, key) requests of 2-3 attributes of
    one domain each."""
    shape = _shape(f"pool:{label}")
    pool: list = []
    seen: set = set()
    while len(pool) < size:
        d = shape.randrange(len(corpus.domains))
        slots = tuple(sorted(
            shape.sample(range(ATTRS_PER_DOMAIN), shape.choice((2, 3)))
        ))
        if (d, slots) not in seen:
            seen.add((d, slots))
            domain = corpus.domains[d]
            pool.append((
                tuple(sorted(domain.attributes[s] for s in slots)), domain.key
            ))
    return pool


def zipf_draws(label: str, n_items: int, n: int, s: float) -> list[int]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n_items)]
    return _shape(f"zipf:{label}").choices(range(n_items), weights=weights, k=n)


def _wtp_op(rng, corpus, buyer, attrs, key) -> tuple:
    domain = next(d for d in corpus.domains if d.key == key)
    wanted = tuple(sorted(
        domain.base_key + k for k in rng.sample(range(KEY_UNIVERSE), 24)
    ))
    return ("wtp", buyer, attrs, key, wanted)


#: one WTP per buyer per round: the mechanism refuses a buyer bidding
#: twice on one good
ROUND_EVERY = len(BUYERS)


def buyer_steps(
    rng: random.Random, corpus: Corpus, pool, draws
) -> list[tuple]:
    """Each step a buyer searches for the drawn request and for the pool's
    next one (the alternative it weighs), plans (collect) the drawn one and
    books a WTP for it; a round settles after every ``ROUND_EVERY`` steps.
    With three fast ops (two searches, the WTP) to one plan per step, the
    op median sits well inside the fast ops' latencies; with one search it
    sat on their edge, where it jumped by a third between runs."""
    ops: list[tuple] = []
    for step, index in enumerate(draws):
        attrs, key = pool[index]
        ops.append(("search", attrs))
        ops.append(("search", pool[(index + 1) % len(pool)][0]))
        ops.append(("plan", attrs, key))
        ops.append(_wtp_op(rng, corpus, BUYERS[step % len(BUYERS)],
                           attrs, key))
        if step % ROUND_EVERY == ROUND_EVERY - 1:
            ops.append(("round",))
    return ops


def warmup_ops(seed: int) -> list[tuple]:
    """One op of each type on a small dataset in a domain of its own
    (``w`` is not a generated letter, so no corpus name collides)."""
    rng = random.Random(f"warmup:{seed}")
    attrs = ("warm_a", "warm_b")
    domain = Domain("warm_id", attrs, {a: "int" for a in attrs}, 0)
    ds = Dataset(
        "warm_t0", (("warm_id", "int"),) + tuple((a, "int") for a in attrs),
        make_rows(rng, domain, attrs, 60),
    )
    corpus = Corpus((domain,), (ds,))
    return (
        [("register", ds), ("update", refreshed(rng, corpus, ds, 0.5))]
        + buyer_steps(rng, corpus, [(attrs, domain.key)], [0])
        + [("round",)]
    )


#: onboard's buyer steps, between the registrations and the updates: two
#: requests asked twice (two plan-cache misses, two hits) and one round.
#: The read layers do a little work rather than none, and the updates after
#: them invalidate the cached plans of the components they touch
ONBOARD_READ_DRAWS = (0, 1, 0, 1)


def onboard_ops(seed: int, corpus: Corpus) -> list[tuple]:
    """Register the whole corpus, run four buyer steps, then update half of
    the corpus."""
    shape = _shape("onboard")
    content = random.Random(f"onboard:{seed}")
    order = list(corpus.datasets)
    shape.shuffle(order)
    ops: list[tuple] = [("register", ds) for ds in order]
    ops += buyer_steps(content, corpus, attribute_pool("onboard", corpus, 2),
                       ONBOARD_READ_DRAWS)
    for ds in shape.sample(order, len(order) // 2):
        fraction = shape.uniform(0.1, 0.9)
        ops.append(("update", refreshed(content, corpus, ds, fraction)))
    return ops


#: shop: pool larger than the default plan cache (128 entries), so the
#: Zipf head hits the cache and the tail misses or evicts
SHOP_POOL = 320
SHOP_ZIPF_S = 1.1
#: a seller write after every SHOP_WRITE_EVERY buyer steps, alternately
#: registering a held-back dataset (while any is left) and updating one:
#: the ingest layers do a little work rather than none, and each write
#: invalidates its component's cached plans
SHOP_WRITE_EVERY = 16
SHOP_UPDATE_FRACTIONS = (0.05, 0.25, 0.6)


def shop_held_back(corpus: Corpus) -> tuple[Dataset, ...]:
    """The datasets shop registers in its timed phase rather than preloads:
    the last (wide) dataset of every domain."""
    per_domain = TALL_PER_DOMAIN + WIDE_PER_DOMAIN
    return corpus.datasets[per_domain - 1::per_domain]


def shop_ops(seed: int, corpus: Corpus, steps: int) -> list[tuple]:
    """Zipf-drawn buyer steps over the pool, with a seller write after every
    ``SHOP_WRITE_EVERY`` of them."""
    shape = _shape("shop")
    content = random.Random(f"shop:{seed}")
    pool = attribute_pool("shop", corpus, SHOP_POOL)
    draws = zipf_draws("shop", len(pool), steps, SHOP_ZIPF_S)
    held = list(shop_held_back(corpus))
    current = {ds.name: ds for ds in corpus.datasets if ds not in held}
    ops: list[tuple] = []
    for write, start in enumerate(range(0, steps, SHOP_WRITE_EVERY)):
        ops += buyer_steps(content, corpus, pool,
                           draws[start:start + SHOP_WRITE_EVERY])
        if write % 2 == 0 and held:
            ds = held.pop(0)
            ops.append(("register", ds))
        else:
            name = shape.choice(sorted(current))
            ds = refreshed(content, corpus, current[name],
                           shape.choice(SHOP_UPDATE_FRACTIONS))
            ops.append(("update", ds))
        current[ds.name] = ds
    return ops
