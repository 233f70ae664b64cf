"""Spans around the calls into each diamondqi module, recorded from outside.

The program is not edited: ``Tracer.install`` replaces the public functions
of each module with wrappers, in every diamondqi module namespace that holds
them (``from .x import f`` makes a second binding), and ``uninstall`` puts
the originals back.  A span is (name, start, end, parent, self time, counts);
its self time is its duration minus that of its direct children, which is
the part of the interval that they do not cover, since spans nest.

Span names are the layers of the per-layer metrics:

* ``entanglement.direct`` / ``.em`` / ``.limit``: the untruncated series,
  with the route read from the result (``n_max_used`` is 0 on the
  Euler-Maclaurin route and the direct term count otherwise; r = 0 is the
  limit); ``entanglement.truncated`` for measures on an explicit Fock
  truncation, ``entanglement.ppt_oracle`` for the dense eigensolver;
* ``states``, ``geometry``: every public function of the module;
* ``specfun.kummer_c128`` / ``_dd`` / ``_mp``: ``kummer_m`` by the branch its
  inputs select; ``specfun.quad`` with the integrand points it evaluated;
* ``modes.closed``, ``modes.quad_int``, ``modes.quad_ext``: the Bogoliubov
  coefficients by route and region;
* ``cli``: ``diamondqi.cli.main`` in a traced CLI child.
"""

import functools
import json
import sys
import time

_perf = time.perf_counter

_STATES_FUNCS = (
    "build_rho_ad",
    "partial_transpose",
    "reduce_to_alice",
    "reduce_to_dave",
    "unruh_one_particle_coefficients",
    "unruh_vacuum_coefficients",
)
_STATES_METHODS = (("FockTruncation", "auto"), ("FockTruncation", "fixed"),
                   ("BipartiteState", "to_dense"), ("BipartiteState", "trace"))
_GEOMETRY_FUNCS = (
    "classify_region",
    "conformal_factor",
    "convert",
    "diamond_coords",
    "diamond_to_rindler",
    "eta_xi_to_diamond",
    "eta_xi_to_rindler",
    "lightcone_map",
    "rindler_to_diamond",
    "rindler_to_eta_xi",
)
_TRUNCATED_FUNCS = ("entropies", "log_negativity", "mutual_information", "negativity")


class Tracer:
    """In-memory spans of one process, and the wrappers that record them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, self_s, counts]
        self._stack = []  # [span index, start, child time]
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def open(self):
        self._stack.append([len(self.spans), _perf(), 0.0])
        self.spans.append(None)

    def close(self, name, counts=None):
        end = _perf()
        idx, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[idx] = [name, start, end, parent, dur - child, counts or {}]

    def wrap(self, fn, namer):
        """fn with a span around each call; namer(args, kwargs, result) gives
        the span name and its counts (result is None when fn raised)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(*namer(args, kwargs, result))

        return traced

    def totals(self):
        """{name: {"calls", "self_s", <count>: sum}} over the recorded spans."""
        out = {}
        for name, _, _, _, self_s, counts in self.spans:
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += self_s
            for key, value in counts.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            fh.write(json.dumps(extra) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- patching ------------------------------------------------------------

    def _replace(self, module, attr, wrap):
        """Rebind module.attr, and every other diamondqi binding of the same
        object, to wrap(module.attr); a name the module no longer has is
        left alone."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = wrap(original)
        for name, mod in list(sys.modules.items()):
            if (name == "diamondqi" or name.startswith("diamondqi.")) and mod is not None:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, namer):
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            wrapper = classmethod(self.wrap(raw.__func__, namer))
        else:
            wrapper = self.wrap(raw, namer)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapper)

    def install(self):
        """Wrap the public functions of entanglement, states, geometry,
        specfun and modes."""
        from diamondqi import entanglement, geometry, modes, specfun, states

        def fixed(name):
            namer = (lambda args, kwargs, result: (name, None))
            return lambda fn: self.wrap(fn, namer)

        def route(args, kwargs, result):
            if result is None:
                return "entanglement.error", None
            if isinstance(result, dict):
                n, r = result["n_max_used"], args[0] if args else kwargs["r"]
            else:
                n, r = result.n_max_used, result.r
            if float(r) == 0.0:
                return "entanglement.limit", None
            if n == 0:
                return "entanglement.em", None
            return "entanglement.direct", {"terms": int(n)}

        # every untruncated measure goes through _measures_full; without it,
        # report_for carries the same n_max_used
        funnel = "_measures_full" if hasattr(entanglement, "_measures_full") else "report_for"
        self._replace(entanglement, funnel, lambda fn: self.wrap(fn, route))
        for attr in _TRUNCATED_FUNCS:
            self._replace(entanglement, attr, self._truncated_only)
        self._replace(entanglement, "ppt_spectrum_closed_form", fixed("entanglement.truncated"))
        self._replace(entanglement, "ppt_spectrum_oracle", fixed("entanglement.ppt_oracle"))

        for attr in _STATES_FUNCS:
            self._replace(states, attr, fixed("states"))
        for cls, attr in _STATES_METHODS:
            if hasattr(states, cls):
                self._replace_method(getattr(states, cls), attr, (lambda a, k, r: ("states", None)))
        for attr in _GEOMETRY_FUNCS:
            self._replace(geometry, attr, fixed("geometry"))

        z_c128 = getattr(specfun, "_Z_C128", 12.0)
        z_dd = getattr(specfun, "_Z_DD", 45.0)

        def kummer_branch(args, kwargs, result):
            params = args[0] if args else kwargs["params"]
            absz = abs(complex(params.z))
            if absz <= z_c128:
                return "specfun.kummer_c128", None
            if absz <= z_dd and complex(params.b).imag == 0.0:
                return "specfun.kummer_dd", None
            return "specfun.kummer_mp", None

        self._replace(specfun, "kummer_m", lambda fn: self.wrap(fn, kummer_branch))
        self._replace(specfun, "oscillatory_integral_with_error", self._counting_quad)

        def quad_region(args, kwargs, result):
            region = args[4] if len(args) > 4 else kwargs.get("region", modes.ModeRegion.INT)
            return ("modes.quad_ext" if region is modes.ModeRegion.EXT else "modes.quad_int"), None

        self._replace(modes, "bogoliubov_closed_form", fixed("modes.closed"))
        self._replace(modes, "bogoliubov_quadrature", lambda fn: self.wrap(fn, quad_region))

    def _truncated_only(self, fn):
        """A span for calls given an explicit truncation; calls without one
        reach _measures_full, which records the route."""
        traced = self.wrap(fn, lambda args, kwargs, result: ("entanglement.truncated", None))

        @functools.wraps(fn)
        def dispatch(r, trunc=None):
            if trunc is None:
                return fn(r)
            return traced(r, trunc)

        return dispatch

    def _counting_quad(self, fn):
        """specfun.quad spans that count the integrand points evaluated."""

        @functools.wraps(fn)
        def traced(f, spec):
            nodes = [0]

            def counted(x):
                nodes[0] += getattr(x, "size", 1)
                return f(x)

            self.open()
            try:
                return fn(counted, spec)
            finally:
                self.close("specfun.quad", {"nodes": nodes[0]})

        return traced

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
