"""Race the fourteen update rules, thirteen of them on one ill-conditioned quadratic.

Each optimizer runs 500 steps at a constant learning rate from a small
per-method grid (the quadratic's loss is its distance to the optimum, so
"loss reduced by 1000x" reads directly). Sophia needs a categorical loss for
its curvature estimator and therefore races on the MLP problem instead.

The quadratic's only parameter block is a vector, and the hybrid rules send
every block that is not a matrix to their AdamW 1-D group. So muon, dmuon,
soap, mars-adamw, mars-lion and mars-shampoo race here as AdamW with their
own 1-D values, not with their own update; seven rules race their own update
on the quadratic.
"""

from optlab import OPTIMIZER_NAMES, sweep

GRIDS = {
    "lion": [0.003, 0.01, 0.03],
    "signum": [0.003, 0.01, 0.03],
    "mars-lion": [0.003, 0.01, 0.03],
    "ademamix": [0.003, 0.01, 0.03],
    "sf-adamw": [0.1, 0.3, 1.0],
    "prodigy": [0.3, 1.0, 3.0],
}
DEFAULT_GRID = [0.01, 0.03, 0.1]
LR_KEY = {name: "optimizer.lr_1d" for name in ("muon", "mars-adamw", "mars-lion", "mars-shampoo")}

print(f"{'optimizer':14} {'best lr':>8} {'final loss':>12} {'reduction':>12}")
for name in OPTIMIZER_NAMES:
    # each rule's tuned 124m-large preset, with the schedule held constant
    base = {
        "optimizer.name": name,
        "optimizer.preset": "124m-large",
        "run.steps": 500,
        "run.seed": 11,
        "schedule.family": "constant",
        "schedule.warmup_steps": 0,
        "schedule.final_lr_factor": None,
    }
    if name == "sophia":
        base.update({"problem.kind": "mlp", "problem.samples": 256, "problem.batch_size": 64})
    else:
        base.update({"problem.kind": "quadratic", "problem.dim": 20, "problem.condition": 10.0})
    key = LR_KEY.get(name, "optimizer.lr")
    best = None
    for assignment, record in sweep(base, {key: GRIDS.get(name, DEFAULT_GRID)}):
        if record.diverged or record.final_loss is None or record.final_loss <= 0.0:
            continue
        reduction = record.rows[0].loss / record.final_loss
        if best is None or reduction > best[2]:
            best = (assignment[key], record.final_loss, reduction)
    lr, final, reduction = best
    print(f"{name:14} {lr:>8g} {final:>12.3e} {reduction:>11.1f}x")
