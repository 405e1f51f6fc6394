#!/usr/bin/env python3
"""Log-log plot of the momentum-variance growth in the sibling CSV."""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

csv_path = Path(__file__).with_name("evolve_growing_diffusion.csv")
steps, var = [], []
with open(csv_path, newline="") as fh:
    for row in csv.DictReader(fh):
        t, v = int(row["step"]), float(row["variance"])
        if t > 0 and v > 0:
            steps.append(t)
            var.append(v)
fig, ax = plt.subplots(figsize=(7, 5))
ax.loglog(steps, var, lw=1.0, color="black")
ax.set_xlabel("kick number")
ax.set_ylabel("momentum variance")
out = csv_path.with_suffix(".png")
fig.savefig(out, dpi=200)
print(out)
