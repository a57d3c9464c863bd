"""Layer spans recorded from outside subcount, by wrapping its public functions.

``Tracer.install()`` replaces each target function in every ``subcount``
module namespace that holds it (and, for methods, in the class), so calls
between modules are seen as well as the benchmark's own calls.  Each call
records a span: layer, start, end, parent span and op id.  Spans stay in
memory and are written out at the end.  Everything runs on one thread with
no I/O, so no layer waits on another and no wait time is recorded.

A target that no longer exists is reported as a missing layer; its metrics
read zero.
"""

import gzip
import sys
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter


def _star_candidates(parts, p):
    """Candidate matrices the matrix census enumerates for a type.

    Column j (0-based) contributes j off-diagonal residues mod p**i for each
    diagonal exponent i, the same product of geometric sums the census loops
    over.
    """
    total = 1
    for j, a in enumerate(parts):
        total *= sum(p ** (j * i) for i in range(a + 1))
    return total


def _observe_closure(counts, entry, args, kwargs, result):
    order = result.prime ** result.group_type.weight
    counts["oracle.closure.subgroups"] += result.total
    counts["oracle.closure.table_cells"] += order * order
    counts["oracle.closure.cost"] += result.total * order


def _observe_star(counts, entry, args, kwargs, result):
    counts["oracle.star.candidates"] += _star_candidates(
        result.group_type.parts, result.prime)
    counts["oracle.star.accepted"] += result.total


def _memo_observer(layer):
    def observe(counts, entry, args, kwargs, result):
        memo = args[2] if len(args) > 2 else kwargs.get("memo")
        if memo is not None:
            counts.memos[layer][id(memo)] = memo
    return observe


def _observe_formula(counts, entry, args, kwargs, result):
    if entry and hasattr(result, "covered"):
        counts["closedforms.results"] += 1
        counts["closedforms.covered"] += bool(result.covered)


def _observe_series(counts, entry, args, kwargs, result):
    counts["genfun.terms"] += len(result.monomials)


# (layer, module, attribute path, observer)
TARGETS = [
    ("oracle.closure", "subcount.oracle", "subgroup_census", _observe_closure),
    ("oracle.star", "subcount.oracle", "star_matrix_census", _observe_star),
    ("recurrence.hironaka", "subcount.recurrence", "count_hironaka",
     _memo_observer("recurrence.hironaka")),
    ("recurrence.stehling", "subcount.recurrence", "count_stehling",
     _memo_observer("recurrence.stehling")),
    ("recurrence.total_count", "subcount.recurrence", "total_count", None),
    ("polyring.mul", "subcount.polyring", "IntPoly.__mul__", None),
    ("polyring.exact_div", "subcount.polyring", "IntPoly.exact_div", None),
    ("genfun", "subcount.genfun", "expand_rational", _observe_series),
    ("cli.verify", "subcount.cli", "main", None),
] + [
    ("closedforms", "subcount.closedforms", name, _observe_formula)
    for name in ("rank2", "rank3", "rank3_with_case", "rank3_mmm", "rank4_partial",
                 "rank4_mmmm_b", "rank4_mmmm_total", "rank4_total_ccl",
                 "leading_term_ccl", "anyrank_case1", "verify_case6_specializations")
] + [
    ("genfun", "subcount.genfun", name, None)
    for name in ("verify_F2", "verify_g_product", "verify_sub_series")
]


class Counts(defaultdict):
    """Per-round counters, plus the memo tables seen per recurrence layer."""

    def __init__(self):
        super().__init__(int)
        self.memos = defaultdict(dict)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = []          # span name table: layers, then op kinds
        self.name_id = {}
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = -1          # spans outside an op carry -1
        self.ops_run = 0
        self.patches = []
        self.missing = []
        self.counts = Counts()

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    # -- spans -------------------------------------------------------------

    def open(self, name_id):
        idx = len(self.start)
        self.layer.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx, t0, t1):
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def span(self, name, fn, observe):
        tracer = self
        lid = self._id(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(lid)
            parent = tracer.parent[idx]
            entry = parent < 0 or tracer.layer[parent] != lid
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.close(idx, t0, t1)
            if observe is not None:
                observe(tracer.counts, entry, args, kwargs, result)
            return result
        return wrapper

    # -- wrapping ----------------------------------------------------------

    def install(self):
        """Wrap every target in every subcount namespace that holds it."""
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "subcount" or name.startswith("subcount."))]
        for layer, modname, path, observe in self.targets:
            owner = sys.modules.get(modname)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append("%s (%s.%s)" % (layer, modname, path))
                continue
            wrapper = self.span(layer, original, observe)
            namespaces = [owner] if owner_path else modules
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self.patches.append((ns, name, value))
                        setattr(ns, name, wrapper)

    def uninstall(self):
        for ns, name, value in reversed(self.patches):
            setattr(ns, name, value)
        self.patches = []

    # -- rounds ------------------------------------------------------------

    def round_start(self):
        self.counts = Counts()
        return len(self.start)

    def round_metrics(self, first):
        """Per-layer metrics over the spans recorded since ``first``."""
        layer, parent = self.layer, self.parent
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i in range(first, len(self.start)):
            dur = self.end[i] - self.start[i]
            name = self.names[layer[i]]
            self_s[name] += dur
            j = parent[i]
            if j >= first:
                self_s[self.names[layer[j]]] -= dur
            if j < 0 or layer[j] != layer[i]:
                calls[name] += 1
        c = self.counts
        out = {}
        for name in sorted({t[0] for t in self.targets}):
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        for name in ("recurrence.hironaka", "recurrence.stehling"):
            out[name + ".memo_entries"] = sum(len(m) for m in c.memos[name].values())
        for key in ("oracle.closure.subgroups", "oracle.closure.table_cells",
                    "oracle.closure.cost", "oracle.star.candidates",
                    "oracle.star.accepted", "genfun.terms",
                    "cli.verify.checks", "cli.verify.failed"):
            out[key] = c[key]
        cost = c["oracle.closure.cost"]
        out["oracle.closure.s_per_mcost"] = (
            self_s["oracle.closure"] / (cost / 1e6) if cost else 0.0)
        cand = c["oracle.star.candidates"]
        out["oracle.star.accept_ratio"] = c["oracle.star.accepted"] / cand if cand else 0.0
        results = c["closedforms.results"]
        out["closedforms.covered_ratio"] = (
            c["closedforms.covered"] / results if results else 0.0)
        return out

    def begin_op(self, kind):
        """Open the span of one op; every op run gets a new id."""
        self.op_id = self.ops_run
        self.ops_run += 1
        return self.open(self._id("op." + kind))

    def end_op(self, idx, t0, t1):
        self.close(idx, t0, t1)
        self.op_id = -1

    def write(self, path):
        """Write every span as CSV: span, name, op, parent, start_s, end_s."""
        base = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for m in self.missing:
                fh.write("# missing layer: %s\n" % m)
            fh.write("span,name,op,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write("%d,%s,%d,%d,%.9f,%.9f\n" % (
                    i, self.names[self.layer[i]], self.op[i], self.parent[i],
                    self.start[i] - base, self.end[i] - base))
