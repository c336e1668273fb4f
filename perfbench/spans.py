"""Spans around the calls into each splitlab layer.

`instrument(tracer)` replaces public splitlab functions and methods with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Wrappers are installed where the callers look
the names up (for example `nn.matmul`, the reference the network's forward
pass uses), so a span marks a call from one module into another, not every
primitive the autograd engine runs internally. Spans stay in memory, in
compact arrays, and are written out once at the end of the run.

A layer's self time is its span time minus the time its child spans cover.
Untraced runs install no wrappers, so they pay nothing for them.
"""

from __future__ import annotations

import contextlib
import functools
import json
from array import array
from time import perf_counter

import numpy as np

# Spans inside which a new autograd tape marks a new step of that kind.
_STEP_CONTEXTS = {"protocol.train_split": "train", "attack.run_attack": "attack"}


class Tracer:
    """In-memory span recorder plus the counters that spans cannot carry."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._open_tape: dict[str, object] = {}
        self.origin = perf_counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(i)

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    # A step builds exactly one tape, and the tape is complete when the next
    # step's tape is created or the enclosing call returns.
    def on_new_tape(self, tape) -> None:
        if not self.stack:
            return
        kind = _STEP_CONTEXTS.get(self.names[self.name[self.stack[-1]]])
        if kind is None:
            return
        self.flush_tape(kind)
        self._open_tape[kind] = tape

    def flush_tape(self, kind: str) -> None:
        tape = self._open_tape.pop(kind, None)
        if tape is not None:
            self.add(f"{kind}.steps")
            self.add(f"{kind}.tape_nodes", len(tape))

    # ---------------------------------------------------------------- output

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64) - self.origin,
            "end": np.frombuffer(self.end, dtype=np.float64) - self.origin,
        }

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        a = self.arrays()
        if a["name"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_time, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(own[i])} for i, n in enumerate(self.names)}

    def write(self, stem, extra_lines: list[str]) -> dict[str, dict[str, float]]:
        """Write `<stem>.npz` (spans) and `<stem>-layers.txt`; return the stats."""
        np.savez(f"{stem}.npz", **self.arrays())
        stats = self.layer_stats()
        lines = list(extra_lines)
        lines.append(f"{'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10} "
                     f"{'self_us/call':>13}")
        for n, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
            if not s["calls"]:
                continue
            per_call = 1e6 * s["self_s"] / s["calls"]
            lines.append(f"{n:<34} {s['calls']:>9} {s['total_s']:>10.4f} "
                         f"{s['self_s']:>10.4f} {per_call:>13.2f}")
        lines.append("counts " + json.dumps(self.counts, sort_keys=True))
        with open(f"{stem}-layers.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return stats


# ------------------------------------------------------------ instrumentation

def _wrap(tracer: Tracer, name: str, fn, after=None):
    nid = tracer.intern(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = open_(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            close(i)
        if after is not None:
            after(args, out)
        return out

    return traced


def _patch(owner, attr: str, tracer: Tracer, name: str, after=None) -> None:
    setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), after))


def instrument(tracer: Tracer) -> None:
    """Install span wrappers on splitlab's public entry points."""
    from splitlab import attack, autograd, cli, harness, nn, protocol

    # autograd: the calls nn, protocol and attack make into it. relu is
    # reached through autograd.activation, which looks it up at call time.
    for name in ("matmul", "add_bias"):
        _patch(nn, name, tracer, f"autograd.{name}")
    _patch(autograd, "relu", tracer, "autograd.relu")
    first = tracer.intern("autograd.backward")
    second = tracer.intern("autograd.backward_create_graph")
    for mod in (protocol, attack):
        _patch(mod, "mse", tracer, "autograd.mse")
        backward = mod.backward

        def traced_backward(loss, wrt, create_graph=False, _fn=backward):
            i = tracer.open(second if create_graph else first)
            try:
                return _fn(loss, wrt, create_graph=create_graph)
            finally:
                tracer.close(i)

        mod.backward = traced_backward

    class CountingTape(autograd.Tape):
        def __init__(self):
            super().__init__()
            tracer.on_new_tape(self)

    protocol.Tape = CountingTape
    attack.Tape = CountingTape

    # nn
    _patch(nn.Adam, "step", tracer, "nn.adam_step")
    _patch(nn.FcNetwork, "forward_values", tracer, "nn.forward_values")
    _patch(cli, "save_checkpoint", tracer, "nn.save_checkpoint")
    _patch(cli, "load_checkpoint", tracer, "nn.load_checkpoint")

    # defense: every defense call the protocol makes
    for name in ("compress_gradient", "noise_gradient", "adaptive_targets",
                 "noise_labels", "extend_labels_random"):
        _patch(protocol, name, tracer, f"defense.{name}")

    # protocol
    def after_train(args, out):
        tracer.flush_tape("train")
        transcript = out[1]
        tracer.add("protocol.train_split_calls")
        tracer.add("protocol.transcript_records", len(transcript.records))
        tracer.add("protocol.transcript_bytes", sum(
            r.indices.nbytes + r.activations.nbytes + r.gradient.nbytes
            for r in transcript.records))

    for mod in (harness, cli):
        _patch(mod, "train_split", tracer, "protocol.train_split", after_train)
    _patch(protocol.Transcript, "save", tracer, "protocol.transcript_save")
    load = protocol.Transcript.__dict__["load"].__func__
    protocol.Transcript.load = classmethod(_wrap(tracer, "protocol.transcript_load", load))

    # attack
    def after_attack(args, out):
        tracer.flush_tape("attack")
        tracer.add("attack.epochs", args[4].epochs)

    for mod in (harness, cli):
        _patch(mod, "run_attack", tracer, "attack.run_attack", after_attack)
    for name in ("gradient_inversion_loss", "model_completion_loss"):
        _patch(attack, name, tracer, f"attack.{name}")
    _patch(attack.RowwiseAdam, "step", tracer, "attack.rowwise_adam_step")

    # data
    for name in ("load_csv", "synth_regression", "split_standardize"):
        _patch(harness, name, tracer, f"data.{name}")
    _patch(cli, "split_standardize", tracer, "data.split_standardize")

    # harness: sweeps reach run_experiment through the module global
    def after_experiment(args, out):
        tracer.add("harness.runs", len(out.runs))

    _patch(harness, "run_experiment", tracer, "harness.run_experiment", after_experiment)
    for name in ("sweep_defense", "sweep_extension_dims"):
        _patch(harness, name, tracer, f"harness.{name}")

    # cli: main dispatches through the cmd_* module globals
    for name in ("cmd_train", "cmd_attack"):
        _patch(cli, name, tracer, f"cli.{name}")
    _patch(cli, "main", tracer, "cli.main")


# ------------------------------------------------------------ per-layer metrics

PER_LAYER = [
    # name, unit
    ("autograd.backward_us", "us"),
    ("autograd.backward_create_graph_us", "us"),
    ("autograd.tape_nodes_train_step", "count"),
    ("autograd.tape_nodes_attack_step", "count"),
    ("autograd.matmul_us", "us"),
    ("autograd.add_bias_us", "us"),
    ("autograd.relu_us", "us"),
    ("autograd.mse_us", "us"),
    ("nn.adam_step_us", "us"),
    ("nn.forward_values_us", "us"),
    ("nn.checkpoint_save_ms", "ms"),
    ("nn.checkpoint_load_ms", "ms"),
    ("defense.compress_gradient_us", "us"),
    ("defense.noise_gradient_us", "us"),
    ("defense.adaptive_targets_us", "us"),
    ("defense.label_prep_ms", "ms"),
    ("protocol.train_split_s", "s"),
    ("protocol.train_step_us", "us"),
    ("protocol.self_us_per_step", "us"),
    ("protocol.transcript_records", "count"),
    ("protocol.transcript_mb", "MB"),
    ("protocol.transcript_save_s", "s"),
    ("protocol.transcript_load_s", "s"),
    ("attack.run_attack_s", "s"),
    ("attack.inversion_step_us", "us"),
    ("attack.gradient_inversion_loss_us", "us"),
    ("attack.model_completion_loss_us", "us"),
    ("attack.rowwise_adam_step_us", "us"),
    ("attack.records_replayed", "count"),
    ("data.load_csv_s", "s"),
    ("data.synth_regression_ms", "ms"),
    ("data.split_standardize_ms", "ms"),
    ("harness.run_experiment_s", "s"),
    ("harness.runs", "count"),
    ("harness.self_s", "s"),
    ("cli.train_s", "s"),
    ("cli.attack_s", "s"),
    ("cli.self_s", "s"),
]

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer_metrics(stats: dict, counts: dict, rounds: int) -> dict[str, float]:
    """Per-layer figures from span stats and counters; a layer the workload
    never reached reads 0."""

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_call(span: str, unit: str, key: str = "total_s") -> float:
        s = stats.get(span)
        return ratio(s[key], s["calls"]) * _SCALE[unit] if s else 0.0

    def total(*spans: str, key: str = "total_s") -> float:
        return sum(stats[s][key] for s in spans if s in stats)

    def calls(*spans: str) -> int:
        return sum(stats[s]["calls"] for s in spans if s in stats)

    train_steps = counts.get("train.steps", 0.0)
    attack_steps = counts.get("attack.steps", 0.0)
    splits = counts.get("protocol.train_split_calls", 0.0)
    label_prep = ("defense.noise_labels", "defense.extend_labels_random")
    cli_spans = ("cli.main", "cli.cmd_train", "cli.cmd_attack")
    harness_spans = ("harness.run_experiment", "harness.sweep_defense",
                     "harness.sweep_extension_dims")
    out = {
        "autograd.backward_us": per_call("autograd.backward", "us"),
        "autograd.backward_create_graph_us": per_call("autograd.backward_create_graph", "us"),
        "autograd.tape_nodes_train_step": ratio(counts.get("train.tape_nodes", 0.0), train_steps),
        "autograd.tape_nodes_attack_step": ratio(counts.get("attack.tape_nodes", 0.0), attack_steps),
        "autograd.matmul_us": per_call("autograd.matmul", "us"),
        "autograd.add_bias_us": per_call("autograd.add_bias", "us"),
        "autograd.relu_us": per_call("autograd.relu", "us"),
        "autograd.mse_us": per_call("autograd.mse", "us"),
        "nn.adam_step_us": per_call("nn.adam_step", "us"),
        "nn.forward_values_us": per_call("nn.forward_values", "us"),
        "nn.checkpoint_save_ms": per_call("nn.save_checkpoint", "ms"),
        "nn.checkpoint_load_ms": per_call("nn.load_checkpoint", "ms"),
        "defense.compress_gradient_us": per_call("defense.compress_gradient", "us"),
        "defense.noise_gradient_us": per_call("defense.noise_gradient", "us"),
        "defense.adaptive_targets_us": per_call("defense.adaptive_targets", "us"),
        "defense.label_prep_ms": ratio(total(*label_prep), calls(*label_prep)) * 1e3,
        "protocol.train_split_s": per_call("protocol.train_split", "s"),
        "protocol.train_step_us": ratio(total("protocol.train_split"), train_steps) * 1e6,
        "protocol.self_us_per_step": ratio(total("protocol.train_split", key="self_s"),
                                           train_steps) * 1e6,
        "protocol.transcript_records": ratio(counts.get("protocol.transcript_records", 0.0), splits),
        "protocol.transcript_mb": ratio(counts.get("protocol.transcript_bytes", 0.0), splits) / 2**20,
        "protocol.transcript_save_s": per_call("protocol.transcript_save", "s"),
        "protocol.transcript_load_s": per_call("protocol.transcript_load", "s"),
        "attack.run_attack_s": per_call("attack.run_attack", "s"),
        "attack.inversion_step_us": ratio(total("attack.run_attack"), attack_steps) * 1e6,
        "attack.gradient_inversion_loss_us": per_call("attack.gradient_inversion_loss", "us"),
        "attack.model_completion_loss_us": per_call("attack.model_completion_loss", "us"),
        "attack.rowwise_adam_step_us": per_call("attack.rowwise_adam_step", "us"),
        "attack.records_replayed": ratio(attack_steps, counts.get("attack.epochs", 0.0)),
        "data.load_csv_s": per_call("data.load_csv", "s"),
        "data.synth_regression_ms": per_call("data.synth_regression", "ms"),
        "data.split_standardize_ms": per_call("data.split_standardize", "ms"),
        "harness.run_experiment_s": per_call("harness.run_experiment", "s"),
        "harness.runs": ratio(counts.get("harness.runs", 0.0), rounds),
        "harness.self_s": ratio(total(*harness_spans, key="self_s"), rounds),
        "cli.train_s": per_call("cli.cmd_train", "s"),
        "cli.attack_s": per_call("cli.cmd_attack", "s"),
        "cli.self_s": ratio(total(*cli_spans, key="self_s"), rounds),
    }
    return out
