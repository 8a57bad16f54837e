"""Fixed reference work for measuring the host's current speed.

run_bench.py runs this as a child process between the measured commands.
It does the kind of work that dominates a ganc command, at a fixed size
and without ganc: interpreted Python over dicts, sets and tuples (parsing
rows, grouping them per user, sorting, float arithmetic) plus a little
numpy. Its wall time tracks how fast the host runs such work at the
moment, so the benchmark can scale the commands' times to a host of
fixed speed. It must not change: every scaled time is relative to it.
"""

import csv
import io
import math

import numpy as np

rows = "\n".join(f"{u},{(u * 7919 + i * 104729) % 1682},{(u + i) % 5 + 1}"
                 for u in range(400) for i in range(100))
per_user: dict = {}
for user, item, value in csv.reader(io.StringIO(rows)):
    per_user.setdefault(int(user), {})[int(item)] = float(value)
popularity: dict = {}
for items in per_user.values():
    for item in items:
        popularity[item] = popularity.get(item, 0) + 1
ranked = sorted(popularity, key=lambda i: (-popularity[i], i))
total = 0.0
for user, items in per_user.items():
    mean = sum(items.values()) / len(items)
    total += math.sqrt(sum((v - mean) ** 2 for v in items.values()))
    seen = set(items)
    top = [i for i in ranked if i not in seen][:5]

rng = np.random.default_rng(0)
np.argsort(rng.random(100_000))
