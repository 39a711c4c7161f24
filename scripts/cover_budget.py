"""How many uniformly random tables the exact cover search finishes.

For each table size it draws ``--tables`` uniformly random truth tables
(each row 1 with probability 1/2, from the fixed seed ``SEED``), minimizes
each with ``minimize_table`` and prints how many finish inside the cover
search's budget (``MAX_COVER_NODES``), with the median and the largest
time per table.  A table that passes the budget raises ``CapacityError``
and counts as not finished.  It writes no files.

    PYTHONPATH=src python scripts/cover_budget.py
    PYTHONPATH=src python scripts/cover_budget.py --sizes 5 6 7 --tables 2
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from asymlogic.errors import CapacityError
from asymlogic.minimize import MAX_COVER_NODES, minimize_table
from asymlogic.semantics import TruthTable

SEED = 5


def finish_rate(n: int, tables: int) -> tuple[int, list[float]]:
    """Tables of ``n`` variables that finish, and the seconds each took."""
    rng = random.Random(1000 * SEED + n)
    names = tuple(f"x{i}" for i in range(n))
    finished, seconds = 0, []
    for _ in range(tables):
        t = TruthTable.from_mask(names, rng.getrandbits(1 << n))
        start = time.perf_counter()
        try:
            minimize_table(t)
            finished += 1
        except CapacityError:
            pass
        seconds.append(time.perf_counter() - start)
    return finished, seconds


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[5, 6, 7, 8],
                   choices=range(1, 13), metavar="N",
                   help="table sizes in variables, 1 to 12 (default 5 6 7 8)")
    p.add_argument("--tables", type=int, default=20,
                   help="random tables per size (default 20)")
    args = p.parse_args(argv)
    if args.tables < 1:
        p.error("--tables must be at least 1")
    print(f"budget {MAX_COVER_NODES} units, seed {SEED}")
    for n in args.sizes:
        finished, seconds = finish_rate(n, args.tables)
        print(f"{n} variables: {finished}/{args.tables} finish; "
              f"median {statistics.median(seconds):.3f} s, "
              f"max {max(seconds):.3f} s per table")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
