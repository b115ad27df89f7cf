"""In-memory spans around the public functions of the friabilis modules.

`Tracer.install` replaces each public function of the layer modules by a
wrapper, at every module attribute that holds it: the defining module and
each module that imported the name. Callers resolve names through those
attributes at call time, so `theorem.psi_enumerate` inside `regime_record`
and `psi_exact.psi_saddle` inside the enumerator's preflight become child
spans of their caller without any edit to the package. `uninstall` puts
the originals back, so untraced passes run the unmodified code.

A span is [name, start_ns, end_ns, parent]; all calls are serial, so a
span's self time is its duration minus the durations of its children.
"""

import importlib
import inspect
import json
import time

LAYERS = ("prime_tables", "dickman", "saddle", "psi_exact", "theorem", "cli")


def _work(name, result):
    # work counts read off return values at the layer boundary
    if name == "psi_exact.psi_enumerate":
        return {"points": result.count, "boundary_hits": result.boundary_ambiguous}
    if name == "prime_tables.sieve_primes":
        return {"primes_built": len(result.primes)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.work = {}
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, self.work
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            counts = _work(name, result)
            if counts:
                for k, v in counts.items():
                    work[k] = work.get(k, 0) + v
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every public function of the layer modules of `package`."""
        mods = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        holders = [package] + mods
        for layer, mod in zip(LAYERS, mods):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for hattr, val in list(vars(holder).items()):
                        if val is fn:
                            self._saved.append((holder, hattr, fn))
                            setattr(holder, hattr, wrapper)

    def uninstall(self):
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()


def self_times(spans, start, end):
    """{name: [self seconds, calls]} over spans[start:end].

    Parent indices refer to positions in the whole `spans` list.
    """
    child = [0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i in range(start, end):
        name, t0, t1, _ = spans[i]
        acc = out.setdefault(name, [0.0, 0])
        acc[0] += (t1 - t0 - child[i]) * 1e-9
        acc[1] += 1
    return out


def dump(path, spans, work):
    with open(path, "w") as fh:
        json.dump({"spans": spans, "work": work}, fh)
