"""Recovering the label party's labels from recorded gradients.

The feature party fixes its trained bottom model, invents a surrogate top
model and one trainable dummy label per training row, and optimizes both so
that the gradients they *would* produce match the gradients it actually
received - plus a light fine-tuning term on a 1% leak of real labels, which
pins down the scale the gradient equations leave free.

Run: python demos/03_label_inference_attack.py  (about a minute)
"""

import numpy as np

from splitlab.attack import AttackConfig, run_attack
from splitlab.data import sample_leaked, split_standardize, synth_regression
from splitlab.defense import NoDefense
from splitlab.metrics import mean_value_baseline
from splitlab.nn import build_network
from splitlab.protocol import SplitSession, train_split

ds = synth_regression(n=2000, d=8, noise_std=0.1, seed=0)
train, test = split_standardize(ds, seed=0)

bottom = build_network([8, 16, 8], seed=1, role="bottom")
top = build_network([8, 1], seed=2, role="top")
session = SplitSession(bottom, top, NoDefense(), lr=0.01, batch_size=64,
                       epochs=100, seed=0)
print("training the victim run (100 epochs)...")
session, transcript, _ = train_split(session, train)

leaked = sample_leaked(train, fraction=0.01, seed=42)
print(f"attacker's leak: {len(leaked.indices)} of {train.n} labels")

# the attack replays the whole history it is given
config = AttackConfig(alpha=0.05, lr=0.01, epochs=25, seed=42)
print("running gradient inversion + model completion (25 epochs)...")
result = run_attack(transcript, session.bottom, train, leaked, config, test=test)

mp = mean_value_baseline(train.labels, train.labels)
print(f"\nattack loss: {result.loss_trace[0]:.4f} -> {result.loss_trace[-1]:.6f}")
print(f"inferred-label MAE/MSE: {result.train_metrics.mae:.4f}/{result.train_metrics.mse:.4f}")
print(f"constant-mean baseline: {mp.mae:.4f}/{mp.mse:.4f}")
print(f"completed model on test: {result.test_metrics.mae:.4f}/{result.test_metrics.mse:.4f}")

verdict = "labels recovered" if result.train_metrics.mae < 0.3 * mp.mae else "attack weak"
print(f"-> {verdict} ({result.train_metrics.mae / mp.mae:.2f} x baseline)")

print("\nfirst ten rows, truth vs inferred:")
for truth, guess in zip(train.labels[:10, 0], result.inferred_labels[:10, 0]):
    print(f"  {truth:+7.3f}   {guess:+7.3f}")
