"""Sweep the warmup duration and watch who cares.

Sign methods take fixed-size steps, so a too-short warmup at an aggressive
learning rate costs them more than it costs a self-normalizing rule. The
sweep API runs the grid with independently derived seeds, so each warmup
point builds its own problem draw (dataset, initial weights and batches);
only the problem's settings and the horizon stay fixed. A gap between two
points therefore mixes the warmup effect with draw-to-draw spread.
"""

from optlab import sweep

BASE = {
    "problem.kind": "mlp",
    "problem.in_dim": 8,
    "problem.hidden": 16,
    "problem.classes": 3,
    "problem.samples": 512,
    "problem.batch_size": 32,
    "schedule.family": "cosine",
    "run.steps": 600,
    "run.seed": 3,
    "run.clip": 0.5,
}
WARMUPS = [10, 60, 150, 300]

for name, lr in (("adamw", 0.01), ("signum", 0.02), ("lion", 0.02)):
    base = dict(BASE, **{"optimizer.name": name, "optimizer.lr": lr, "optimizer.weight_decay": 0.1})
    results = sweep(base, {"schedule.warmup_steps": WARMUPS})
    row = "  ".join(
        f"w={assign['schedule.warmup_steps']:>3}: {rec.final_loss:8.5f}" for assign, rec in results
    )
    print(f"{name:8} (lr {lr})  {row}")

print("\nfinal full-dataset loss by warmup length; each cell is its own seeded run")
