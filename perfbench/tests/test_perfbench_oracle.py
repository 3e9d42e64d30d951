"""The benchmark's oracle against the paper's hotel example (Fig. 1) and
against the engine on small random inputs."""

from __future__ import annotations

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import common, oracle  # noqa: E402

# Months of 2012 as integers: [2012/1, 2012/8) is [1, 8).
RESERVATIONS = [("Ann", 1, 8), ("Joe", 2, 6), ("Ann", 8, 12)]
PRICES = [(50, 1, 2, 1, 6), (40, 3, 7, 1, 6), (30, 8, 12, 1, 13),
          (50, 1, 2, 10, 13), (40, 3, 7, 10, 13)]


def stay_fits(reservation, price) -> bool:
    """θ of query Q1: Min ≤ DUR(R.T) ≤ Max."""
    return price[1] <= reservation[-1] - reservation[-2] <= price[2]


def test_alignment_of_reservations_matches_fig1():
    got = oracle.align(RESERVATIONS, PRICES, theta=stay_fits)
    assert got == {("Ann", 1, 6), ("Ann", 6, 8), ("Joe", 2, 6),
                   ("Ann", 8, 10), ("Ann", 10, 12)}


def test_alignment_of_prices_keeps_unmatched_and_gaps():
    got = oracle.align(PRICES, RESERVATIONS, theta=lambda p, r: stay_fits(r, p))
    assert got == {(50, 1, 2, 1, 6), (40, 3, 7, 1, 6), (40, 3, 7, 2, 6),
                   (30, 8, 12, 1, 13), (50, 1, 2, 10, 13),
                   (40, 3, 7, 10, 12), (40, 3, 7, 12, 13)}


def test_normalization_of_reservations_matches_fig7():
    got = oracle.normalize(RESERVATIONS, RESERVATIONS)
    assert got == {("Ann", 1, 2), ("Ann", 2, 6), ("Ann", 6, 8), ("Joe", 2, 6),
                   ("Ann", 8, 12)}


def test_keys_restrict_matching():
    r = [("a", 0, 10), ("b", 0, 10)]
    s = [("a", 3, 5), ("c", 4, 6)]
    assert oracle.align(r, s, 0, 0) == {("a", 0, 3), ("a", 3, 5), ("a", 5, 10), ("b", 0, 10)}
    assert oracle.normalize(r, s, (0,), (0,)) == {
        ("a", 0, 3), ("a", 3, 5), ("a", 5, 10), ("b", 0, 10)}


def test_oracle_agrees_with_the_engine_on_random_pairs():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.sql.interface import Connection

    columns = ("cat", "min_dur", "max_dur")
    for seed in range(3):
        rng = random.Random(seed)
        r, s = common.drand(seed, rng.randint(20, 120), 4, 300, 40)
        connection = Connection()
        connection.register_relation("r", common.relation_from_rows(columns, r))
        connection.register_relation("s", common.relation_from_rows(columns, s))
        run = lambda sql: set(connection.execute(sql).rows)  # noqa: E731
        assert run("SELECT * FROM (r ALIGN s ON r.cat = s.cat) x") == oracle.align(r, s, 0, 0)
        assert run("SELECT * FROM (r a NORMALIZE s b USING(cat)) x") == oracle.normalize(
            r, s, (0,), (0,))
        assert run(
            "SELECT * FROM (r ALIGN s ON r.cat = s.cat AND r.min_dur <= s.max_dur) x"
        ) == oracle.align(r, s, 0, 0, lambda x, y: x[1] <= y[2])
