#!/usr/bin/env python3
"""Scatter the quasienergy spectrum in the sibling CSV against hbar_eff."""
import csv
import math
from pathlib import Path

import matplotlib.pyplot as plt

csv_path = Path(__file__).with_name("butterfly_spectrum.csv")
hbar, eps = [], []
with open(csv_path, newline="") as fh:
    for row in csv.DictReader(fh):
        hbar.append(float(row["hbar"]) / (2 * math.pi))
        eps.append(float(row["quasienergy"]))
fig, ax = plt.subplots(figsize=(7, 7))
ax.scatter(hbar, eps, s=0.3, marker=".", linewidths=0, color="black")
ax.set_xlabel("hbar_eff / 2pi")
ax.set_ylabel("quasienergy")
out = csv_path.with_suffix(".png")
fig.savefig(out, dpi=200)
print(out)
