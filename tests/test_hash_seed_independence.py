"""Plans do not depend on Python's string-hash seed.

Set and dict iteration over strings follows ``PYTHONHASHSEED``; a planner
tie-break that leaked that order would hand two processes — or a process
and its own restart — different mashups for one request.  The same corpus
is planned in child processes under two hash seeds, once on a fresh market
and once on a market cold-started from the store the fresh one wrote, and
every answer must agree.  The corpus is tie-rich on purpose: twin datasets
with identical content give equal-score candidates, so only the planner's
explicit ordering decides between them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import json
import sys

from repro import DataMarket
from repro.relation import Column, Relation


def corpus():
    out = []
    for d, (key, attrs) in enumerate([
        ("cust_code", ("region", "tier", "spend", "visits")),
        ("sku_ref", ("colour", "weight", "margin", "stock")),
    ]):
        keys = [f"{key[:3]}{d}_{i:03d}" for i in range(60)]
        for j in range(3):
            cols = attrs[j:j + 2]
            rows = [
                (k, *(f"{c}_{(i * (j + 3)) % 7}" if c in ("region", "colour")
                      else float((i * 31 + j * 7) % 23) for c in cols))
                for i, k in enumerate(keys)
            ]
            schema = [Column(key, "str")] + [
                Column(c, "str" if c in ("region", "colour") else "float")
                for c in cols
            ]
            # twins: same content under two names, equal-score candidates
            for twin in ("a", "b"):
                out.append(Relation(f"{key}_{j}{twin}", schema, rows))
    return out


REQUESTS = [
    (["region", "tier"], "cust_code"),
    (["tier", "spend", "visits"], "cust_code"),
    (["region", "spend"], None),
    (["colour", "weight", "margin"], "sku_ref"),
    (["stock", "colour"], "sku_ref"),
]


def answers(market):
    out = []
    for attrs, key in REQUESTS:
        result = market.plan(attrs, key=key)
        out.append([
            [m.sources(), sorted(m.matched.items())] for m in result.mashups
        ])
    return out


path = sys.argv[1]
fresh = DataMarket(store=path)
for relation in corpus():
    fresh.register_dataset(relation, seller="s_" + relation.name[:3])
replayed = DataMarket(store=path)
print(json.dumps({"fresh": answers(fresh), "replayed": answers(replayed)}))
"""


def plan_under_hash_seed(hash_seed: int, store: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(store)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_plans_identical_across_hash_seeds_fresh_and_replayed(tmp_path):
    one = plan_under_hash_seed(1, tmp_path / "seed1.db")
    two = plan_under_hash_seed(2, tmp_path / "seed2.db")
    assert all(one["fresh"])  # every request found mashups
    # the twins really do tie: both serve the first request on their own
    solo = [sources for sources, _matched in one["fresh"][0]]
    assert ["cust_code_0a"] in solo and ["cust_code_0b"] in solo
    assert one["fresh"] == two["fresh"]
    assert one["replayed"] == two["replayed"]
    assert one["fresh"] == one["replayed"]
