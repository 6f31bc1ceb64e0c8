"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions and methods of the pauli_lab layer
modules, rebinds every module-level alias of a wrapped function (the names a
``from .x import f`` statement creates in another module), and restores the
originals when it is switched off.  Nothing under ``src/`` is edited.

Each span records its inclusive time, its self time (inclusive time minus the
time covered by its direct child spans), its call count and the computed work
counters of ``COUNTERS``.  Spans are aggregated by name in memory.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "pauli_lab"
LAYERS = ("cli", "constructions", "pauli_verify", "interpolation", "fourier",
          "entire_models", "asymptotics", "sequences", "thresholds", "acceptance")
COMPLEX_BYTES = 16


def span_name(module: str, qualname: str) -> str:
    """``cli.cmd_verify`` becomes ``cli.verify``, the subcommand users see."""
    if module == "cli" and qualname.startswith("cmd_"):
        qualname = qualname[len("cmd_"):]
    return f"{module}.{qualname}"


def _grid_len(spec) -> int:
    return spec.nodes + 1


def _count_eval(args, kwargs, out, exc, frame):
    model, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    return {"factors": len(model.zeros) * int(getattr(z, "size", 1))}


def _count_transform_values(args, kwargs, out, exc, frame):
    fx, xi = args[0], args[2] if len(args) > 2 else kwargs["xi"]
    entries = len(fx) * int(getattr(xi, "size", 1))
    return {"phase_entries": entries, "phase_bytes_computed": entries * COMPLEX_BYTES}


def _count_interp_eval(args, kwargs, out, exc, frame):
    interp, x = args[0], args[1]
    p = interp.problem
    n = _grid_len(p.freq_quad) if len(p.mu) else 0
    return {"phase_entries": n * int(getattr(x, "size", 1))}


def _count_interp_eval_hat(args, kwargs, out, exc, frame):
    interp, xi = args[0], args[1]
    p = interp.problem
    n = _grid_len(p.time_quad) if len(p.lam) else 0
    return {"phase_entries": n * int(getattr(xi, "size", 1))}


def _count_columns(args, kwargs, out, exc, frame):
    return {"columns": len(args[1] if len(args) > 1 else kwargs["lams"])}


def _count_window_cut(args, kwargs, out, exc, frame):
    if exc is not None:
        return {"candidates": len(getattr(exc, "diagnostics", ())), "raised": 1}
    return {"candidates": len(out[1]), "raised": 0}


def _count_assembly(args, kwargs, out, exc, frame):
    tries = frame.children["interpolation.choose_window_cut"]
    return {"window_retries": max(0, tries - 1)}


def _count_solve(args, kwargs, out, exc, frame):
    return {"iterations": len(out.state.norms)} if exc is None else {}


# span name -> hook(args, kwargs, result, exception, frame) -> counter increments
COUNTERS = {
    "entire_models.ProductModel.eval": _count_eval,
    "fourier.transform_values": _count_transform_values,
    "interpolation.AssembledInterpolant.eval": _count_interp_eval,
    "interpolation.AssembledInterpolant.eval_hat": _count_interp_eval_hat,
    "interpolation.divided_columns": _count_columns,
    "interpolation.choose_window_cut": _count_window_cut,
    "interpolation.assemble_vanishing_function": _count_assembly,
    "interpolation.solve": _count_solve,
}
# the fields those hooks produce, plus the call count every span has
COUNTER_FIELDS = ("calls", "factors", "phase_entries", "phase_bytes_computed", "columns",
                  "candidates", "raised", "window_retries", "iterations")

# derived span: the fourier.transform calls that interpolation.solve makes to
# verify its interpolant with a fresh, finer quadrature
RETRANSFORM = "fourier.verify_retransform"


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = Counter()


class _Frame:
    __slots__ = ("name", "start", "child_s", "children", "phase_entries", "outer")

    def __init__(self, name, start, outer):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.children = Counter()
        self.phase_entries = 0
        self.outer = outer


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``install()`` binds the wrappers, ``uninstall()`` restores every
    original.  Spans named ``cli.*`` are the op roots users see as commands;
    ``covered_s`` sums the outermost non-cli spans, so that
    ``covered_s / op wall`` is the share of op time the layers account for.
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.stack: list[_Frame] = []
        self.layer_depth = 0
        self.covered_s = 0.0
        self._patches = self._build_patches()

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        is_layer = not name.startswith("cli.")
        frame = _Frame(name, 0.0, is_layer and self.layer_depth == 0)
        if is_layer:
            self.layer_depth += 1
        if self.stack:
            self.stack[-1].children[name] += 1
        self.stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame, args, kwargs, out, exc) -> None:
        elapsed = time.perf_counter() - frame.start
        self.stack.pop()
        name = frame.name
        if not name.startswith("cli."):
            self.layer_depth -= 1
        if frame.outer:
            self.covered_s += elapsed
        st = self.stats[name]
        st.calls += 1
        st.total_s += elapsed
        st.self_s += elapsed - frame.child_s
        hook = COUNTERS.get(name)
        if hook is not None:
            counts = hook(args, kwargs, out, exc, frame)
            st.counts.update(counts)
            frame.phase_entries += counts.get("phase_entries", 0)
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child_s += elapsed
            parent.phase_entries += frame.phase_entries
            if name == "fourier.transform" and parent.name == "interpolation.solve":
                rt = self.stats[RETRANSFORM]
                rt.calls += 1
                rt.total_s += elapsed
                rt.counts["phase_entries"] += frame.phase_entries

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, args, kwargs, None, exc)
                raise
            tracer._exit(frame, args, kwargs, out, None)
            return out

        wrapper.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        return wrapper

    # -- wrapping --------------------------------------------------------------

    def _build_patches(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        patches = []
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    wrappers[id(val)] = self._wrap(val, span_name(layer, val.__qualname__))
                elif (inspect.isclass(val) and val.__module__ == mod.__name__
                      and not issubclass(val, BaseException)):
                    patches.extend(self._class_patches(layer, val))
        # every module-level binding of a wrapped function, in any package
        # module: the defining module and each `from .x import f` alias
        for mod in self._package_modules():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers:
                    patches.append((mod, attr, val, wrappers[id(val)]))
        return patches

    def _class_patches(self, layer: str, cls) -> list:
        out = []
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = span_name(layer, f"{cls.__name__}.{attr}")
            if isinstance(val, (staticmethod, classmethod)):
                out.append((cls, attr, val, type(val)(self._wrap(val.__func__, name))))
            elif inspect.isfunction(val):
                out.append((cls, attr, val, self._wrap(val, name)))
        return out

    @staticmethod
    def _package_modules() -> list:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._check_bindings()

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def _check_bindings(self) -> None:
        """Fail loudly if any module still binds an unwrapped original."""
        originals = {id(orig) for owner, _, orig, _ in self._patches
                     if inspect.isfunction(orig)}
        stale = [f"{m.__name__}.{a}" for m in self._package_modules()
                 for a, v in vars(m).items() if inspect.isfunction(v) and id(v) in originals]
        if stale:
            raise RuntimeError(f"tracer left original bindings: {stale}")

    def snapshot_counts(self) -> dict:
        """Calls and work counters per span, as plain integers."""
        return {name: {"calls": st.calls, **{k: int(v) for k, v in st.counts.items()}}
                for name, st in self.stats.items()}
