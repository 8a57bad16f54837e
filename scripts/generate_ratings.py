#!/usr/bin/env python3
"""Write a synthetic popularity-skewed rating CSV for pipeline demos."""

import argparse

from ganc.io_utils import write_table
from ganc.synthetic import generate_ratings


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--users", type=int, default=300)
    ap.add_argument("--items", type=int, default=600)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="data/synthetic.csv")
    args = ap.parse_args()
    ratings = generate_ratings(n_users=args.users, n_items=args.items, seed=args.seed)
    write_table(args.out, ("user", "item", "rating"),
                ((r.user_id, r.item_id, r.value) for r in ratings))
    print(f"wrote {len(ratings)} ratings to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
