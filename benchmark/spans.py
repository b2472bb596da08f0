"""Outside-in tracing of the package's public functions.

Each listed function is wrapped on every loaded `chiraldet` namespace that
holds it, because the modules import one another by name: wrapping only
`chiraldet.attention.attend_fwd` would miss the call made through
`chiraldet.model.attend_fwd`. A listed function that no longer exists is
reported absent instead of failing the run.

Every call records a span (name, start, end, parent span, phase). Spans stay
in memory and are written out once, when the run ends. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np

# module -> public functions timed per layer
LAYERS = {
    "data": ("gen_rs", "gen_axial", "write_dataset", "read_manifest"),
    "geometry": ("partition_atoms",),
    "encoder": (
        "kernel_fwd", "kernel_bwd", "encode_fwd", "encode_bwd",
        "mlp2_fwd", "mlp2_bwd", "retract_orthonormal",
    ),
    "numerics": ("qr_det3_batch", "finite_diff_grad"),
    "attention": ("attend_fwd", "attend_bwd", "pair_bias_fwd", "pair_bias_bwd"),
    "model": (
        "forward_full", "backward_from_logits", "batch_step_classify",
        "zero_grads", "adam_step", "save_checkpoint", "load_checkpoint",
    ),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# work counters, each measured at the boundary where the work happens
COUNTERS = ("encoder.kernel.slices", "attention.logits", "numerics.fd_evals")


def _kernel_slices(args, kwargs, out):
    # units * k: rows of the chirality-matrix batch times kernel slices
    bank = args[0] if args else kwargs["bank"]
    mc = args[1] if len(args) > 1 else kwargs["mc_batch"]
    return len(mc) * bank.w.shape[0]


def _attention_logits(args, kwargs, out):
    # n_q * n_k * H: the attention weights are (n_q, n_k, H)
    return int(out[2].size)


_OUTPUT_COUNTERS = {
    "encoder.kernel_fwd": ("encoder.kernel.slices", _kernel_slices),
    "attention.attend_fwd": ("attention.logits", _attention_logits),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "chiraldet" or name.startswith("chiraldet."))]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_phase: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.phase = 0
        self.counts = {c: [0] for c in COUNTERS}  # per phase
        self.broken_counters: set[str] = set()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_idx: int) -> int:
        i = len(self.span_name)
        self.span_name.append(name_idx)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_phase.append(self.phase)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def new_phase(self):
        self.phase += 1
        for c in COUNTERS:
            self.counts[c].append(0)

    def _count(self, counter: str, n: int):
        self.counts[counter][self.phase] += n

    # -- wrappers ----------------------------------------------------------

    def _make_wrapper(self, qualname: str, orig):
        idx = self._intern(qualname)
        out_counter = _OUTPUT_COUNTERS.get(qualname)
        count_fd = qualname == "numerics.finite_diff_grad"

        def wrapper(*args, **kwargs):
            if count_fd and args and callable(args[0]):
                f = args[0]

                def counted(theta):
                    self._count("numerics.fd_evals", 1)
                    return f(theta)

                args = (counted,) + args[1:]
            i = self._open(idx)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(i)
            if out_counter and out_counter[0] not in self.broken_counters:
                try:
                    self._count(out_counter[0], out_counter[1](args, kwargs, out))
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.broken_counters.add(out_counter[0])
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self):
        """Wrap every listed function on every package namespace holding it."""
        modules = _package_modules()
        self.absent = []
        for qualname in FUNCTIONS:
            mod_name, fn = qualname.split(".")
            home = sys.modules.get(f"chiraldet.{mod_name}")
            orig = getattr(home, fn, None) if home is not None else None
            if orig is None or not callable(orig):
                self.absent.append(qualname)
                continue
            wrapper = self._make_wrapper(qualname, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches = []

    # -- results -----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "phase": np.asarray(self.span_phase, dtype=np.int32),
            "start": np.asarray(self.starts, dtype=np.float64),
            "end": np.asarray(self.ends, dtype=np.float64),
        }

    def totals(self):
        """{name: (calls[phase], total_s[phase], self_s[phase])} per phase."""
        a = self.arrays()
        n_phase = self.phase + 1
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        out = {}
        for idx, name in enumerate(self.names):
            mask = a["name"] == idx
            ph = a["phase"][mask]
            out[name] = (
                np.bincount(ph, minlength=n_phase),
                np.bincount(ph, weights=dur[mask], minlength=n_phase),
                np.bincount(ph, weights=self_s[mask], minlength=n_phase),
            )
        return out

    def write(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), **a)
