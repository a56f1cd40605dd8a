"""Per-layer counts and self times, seen from outside the library.

The tracer wraps chosen public functions of each ``promotab`` module and
rebinds every module global that refers to them, so calls through
``from .dynamics import promote`` style imports are seen too.  It stores
no span records: each wrapper adds to counters for its name (calls, items
yielded, inclusive seconds) and for its layer (self seconds).  A layer's
self time is its spans' time minus the time of traced calls they made.
Helpers that are not wrapped, such as ``Tableau.get``, count toward the
traced function that called them.

Generator functions are timed on every ``next()``, because calling one
only creates the generator.  Constructors of the element types are
wrapped at ``__init__``, so every construction is counted wherever the
class was imported.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "homomesy", "shapes", "dynamics", "posets", "ktableaux", "growth", "paths")

# Names wrapped in each module: functions, methods as "Class.method", and
# constructors as the class name.
TRACED = {
    "cli": ("main", "build_parser"),
    "homomesy": (
        "verify_homomesy",
        "orbit_average",
        "cell_sum",
        "report_to_jsonable",
        "symmetric_subsets",
        "ssyt_system",
        "syt_poset_system",
        "inc_system",
    ),
    "shapes": ("Tableau", "enumerate_ssyt", "enumerate_syt", "count_ssyt", "count_syt", "validate"),
    "dynamics": (
        "promote",
        "promote_inverse",
        "promote_via_toggles",
        "rectify",
        "jdt_slide",
        "toggle",
        "partial_promote",
        "evacuate",
        "evacuate_via_toggles",
    ),
    "posets": (
        "LinearExtension",
        "FinitePoset.minimal_of",
        "linear_extensions",
        "poset_promote",
        "poset_toggle",
        "build_cominuscule",
    ),
    "ktableaux": ("IncreasingTableau", "enumerate_increasing", "k_promote", "switch"),
    "growth": ("check_dis_invariance", "period_window", "orbit_values"),
    "paths": ("check_flow_invariance", "promotion_path", "trajectory", "flow_tables"),
}

# The step maps of the homomesy systems.  A call counts as a homomesy step
# when its nearest traced caller is in the homomesy layer.
STEP_MAPS = ("dynamics.promote", "dynamics.promote_inverse", "ktableaux.k_promote", "posets.poset_promote")
ENUMERATORS = ("shapes.enumerate_ssyt", "posets.linear_extensions", "ktableaux.enumerate_increasing")


class Tracer:
    """Install with :meth:`install`, read :attr:`calls`, :attr:`items`,
    :attr:`seconds` and :attr:`self_s`, and remove with :meth:`uninstall`."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.homomesy_steps = 0
        self.homomesy_enumerated = 0
        # One frame per open span: [child seconds, layer]; the bottom frame
        # is the benchmark itself.
        self._frames: list[list] = [[0.0, "bench"]]
        self._restore: list[tuple[object, str, object]] = []

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for name, n in self.items.items():
            out[f"{name}.items"] = n
        for name, s in self.seconds.items():
            out[f"{name}.s"] = s
        for layer, s in self.self_s.items():
            out[f"{layer}.self_s"] = s
        return out

    # -- wrapping --------------------------------------------------------

    def _close(self, name: str, layer: str, started: float) -> None:
        elapsed = perf_counter() - started
        child, _ = self._frames.pop()
        self.seconds[name] += elapsed
        self.self_s[layer] += elapsed - child
        self._frames[-1][0] += elapsed

    def _function(self, name: str, layer: str, fn):
        frames = self._frames
        calls = self.calls
        close = self._close
        is_step = name in STEP_MAPS

        def traced(*args, **kwargs):
            calls[name] += 1
            if is_step and frames[-1][1] == "homomesy":
                self.homomesy_steps += 1
            frames.append([0.0, layer])
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, layer, started)

        return traced

    def _generator(self, name: str, layer: str, fn):
        frames = self._frames
        calls = self.calls
        items = self.items
        close = self._close
        is_enumerator = name in ENUMERATORS

        def iterate(inner):
            advance = inner.__next__
            while True:
                consumer = frames[-1][1]
                frames.append([0.0, layer])
                started = perf_counter()
                try:
                    value = advance()
                except StopIteration:
                    close(name, layer, started)
                    return
                except BaseException:
                    close(name, layer, started)
                    raise
                close(name, layer, started)
                items[name] += 1
                if is_enumerator and consumer == "homomesy":
                    self.homomesy_enumerated += 1
                yield value

        def traced(*args, **kwargs):
            calls[name] += 1
            return iterate(fn(*args, **kwargs))

        return traced

    def install(self) -> None:
        """Wrap every name in :data:`TRACED` that the library defines."""
        modules = {layer: importlib.import_module(f"promotab.{layer}") for layer in LAYERS}
        modules["promotab"] = importlib.import_module("promotab")
        for layer, names in TRACED.items():
            module = modules[layer]
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                name = f"{layer}.{attr}"
                self.calls[name] = 0
                self.seconds[name] = 0.0
                if inspect.isclass(original):
                    self._set(original, "__init__", self._function(name, layer, original.__init__))
                    continue
                if inspect.isgeneratorfunction(original):
                    self.items[name] = 0
                    wrapper = self._generator(name, layer, original)
                else:
                    wrapper = self._function(name, layer, original)
                if owner is not module:
                    self._set(owner, attr, wrapper)
                    continue
                for target in modules.values():
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._set(target, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
