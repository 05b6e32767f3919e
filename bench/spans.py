"""Spans recorded from outside the program, around its public functions.

Recorder.install() wraps every public function of the traced modules and
rebinds the wrapper wherever a marketstates module holds that function,
since several modules import names with ``from .x import``. Spans stay
in memory as [name, start, end, parent] rows; the caller writes them out
once, after the run.
"""

import functools
import hashlib
import inspect
import os
import sys
import time

import numpy as np

TRACED_MODULES = ("ingest", "ifn", "segment", "analysis", "cli")
PACKAGE = "marketstates"


class Recorder:
    """Span rows plus the per-call facts some layer metrics need."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.csv_bytes = 0  # bytes of every CSV handed to load_price_panel
        self.solved_days = 0  # time points over all solve_path calls
        self.estimate_keys: list = []  # (panel id, members digest, similarity)
        self._panels: dict = {}  # id -> array, kept alive so ids stay unique

    def wrap(self, name, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            row = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def _on_load(self, path, *args, **kwargs):
        self.csv_bytes += os.path.getsize(path)

    def _on_solve(self, scores, *args, **kwargs):
        self.solved_days += int(np.shape(getattr(scores, "values", scores))[0])

    def _on_estimate(self, returns, member_indices, config, *args, **kwargs):
        members = np.sort(np.asarray(member_indices, dtype=np.int64))
        self._panels.setdefault(id(returns.values), returns.values)
        self.estimate_keys.append(
            (id(returns.values), hashlib.blake2b(members.tobytes()).hexdigest(),
             config.similarity_mode)
        )

    def install(self) -> None:
        """Wrap the public functions of the traced modules, in every binding."""
        hooks = {
            "ingest.load_price_panel": self._on_load,
            "segment.solve_path": self._on_solve,
            "segment.estimate_cluster": self._on_estimate,
        }
        wrapped = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[fn] = self.wrap(name, fn, hooks.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def repeated_estimates(self) -> int:
        """Calls whose (panel contents, member set, similarity) came up before."""
        digests = {
            pid: hashlib.blake2b(np.ascontiguousarray(values).tobytes()).hexdigest()
            for pid, values in self._panels.items()
        }
        seen = set()
        repeats = 0
        for pid, members, mode in self.estimate_keys:
            key = (digests[pid], members, mode)
            repeats += key in seen
            seen.add(key)
        return repeats


def layer_totals(spans) -> dict:
    """name -> {"calls", "s", "self_s"} from [name, start, end, parent] rows.

    A span's self time is its duration minus that of its direct children;
    calls run on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return totals
