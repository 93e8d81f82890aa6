"""Span recording around clog's public entry points, installed from outside.

Wrappers go in at the names the callers actually look up (for example
`semantics.grid_max`, which semantics imported from kernel, and
`branches.solve_lp`), so every call the program makes passes through them.
Spans stay in memory, in flat arrays, until the run writes them out.  Each
span has a name, start and end (perf_counter seconds), the index of the
enclosing span (-1 at top level) and the benchmark item it belongs to.

Nothing is installed unless `install` is called: the untraced end-to-end
runs execute the program untouched.
"""

import functools
import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

_DONE = object()


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.counts = Counter()
        self.item_id = -1
        self._stack = []

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def __len__(self):
        return len(self.start)

    def to_json(self):
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "item": self.item.tolist(),
            "counts": dict(self.counts),
        }

    def extend(self, data, item_id):
        """Append spans recorded elsewhere (another process) as one item's."""
        base = len(self.start)
        for nid, t0, t1, parent in zip(
            data["name"], data["start"], data["end"], data["parent"]
        ):
            name = data["names"][nid]
            local = self._name_ids.get(name)
            if local is None:
                local = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.name.append(local)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.item.append(item_id)
        self.counts.update(data["counts"])

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, separators=(",", ":"))


def _wrap(rec, fn, name, outcome=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if outcome is not None:
            outcome(rec, result)
        return result

    return wrapper


def _wrap_iter_cells(rec, method):
    """Times each next() of the cell generator, so the consumer's work
    between cells (optimize_cell, mostly) is not charged to enumeration."""

    @functools.wraps(method)
    def iter_cells(self, nodes):
        gen = method(self, nodes)
        try:
            while True:
                idx = rec.open("branches.iter_cells")
                try:
                    cell = next(gen, _DONE)
                finally:
                    rec.close(idx)
                if cell is _DONE:
                    return
                rec.counts["branches.cells"] += 1
                yield cell
        finally:
            gen.close()

    return iter_cells


def _wrap_grid_max(rec, fn, unsupported):
    @functools.wraps(fn)
    def grid_max(*args, **kwargs):
        idx = rec.open("kernel.grid_max")
        try:
            value, point = fn(*args, **kwargs)
        except unsupported:
            rec.counts["kernel.unsupported"] += 1
            raise
        finally:
            rec.close(idx)
        if value > 0:
            rec.counts["kernel.refuted"] += 1
        return value, point

    return grid_max


def _count_infeasible(rec, result):
    if result.status == "infeasible":
        rec.counts["simplex.infeasible"] += 1


def _count_sections(rec, result):
    rec.counts["randomisation.sections_enumerated"] += len(result)


SEMANTICS_ENTRIES = (
    "is_valid", "is_satisfiable", "entails_semantic", "entails_witness",
    "unsat_witness", "sup_value", "enumerate_branches",
)


def install(rec):
    """Wrap every layer's entry points; returns a function that undoes it."""
    from clog import branches, hall, kernel, proofs, randomisation, rv, semantics, syntax

    enum = branches.CellEnumerator
    plan = [
        (syntax, "parse_formula", lambda f: _wrap(rec, f, "syntax.parse")),
        (syntax, "parse_lformula", lambda f: _wrap(rec, f, "syntax.parse")),
        (proofs, "parse_formula", lambda f: _wrap(rec, f, "syntax.parse")),
        (semantics, "grid_max",
         lambda f: _wrap_grid_max(rec, f, kernel.KernelUnsupported)),
        (enum, "iter_cells", lambda f: _wrap_iter_cells(rec, f)),
        (enum, "feasible_point",
         lambda f: _wrap(rec, f, "branches.feasible_point")),
        (enum, "optimize_cell", lambda f: _wrap(rec, f, "branches.optimize_cell")),
        (branches, "solve_lp",
         lambda f: _wrap(rec, f, "simplex.solve_lp", _count_infeasible)),
        (randomisation, "los_check",
         lambda f: _wrap(rec, f, "randomisation.los_check")),
        (randomisation, "bracket_by_sections",
         lambda f: _wrap(rec, f, "randomisation.sections_route")),
        (randomisation, "bracket",
         lambda f: _wrap(rec, f, "randomisation.pointwise_route")),
        (randomisation, "all_sections",
         lambda f: _wrap(rec, f, "randomisation.all_sections", _count_sections)),
        (hall, "hall_condition", lambda f: _wrap(rec, f, "hall.condition")),
        (hall, "solve_allocation", lambda f: _wrap(rec, f, "hall.allocation")),
        (hall, "verify_allocation", lambda f: _wrap(rec, f, "hall.verify")),
        (rv, "arv_defect", lambda f: _wrap(rec, f, "rv.arv_defect")),
        (proofs, "find_proof", lambda f: _wrap(rec, f, "proofs.find_proof")),
    ]
    plan += [
        (semantics, entry,
         lambda f, entry=entry: _wrap(rec, f, "semantics." + entry))
        for entry in SEMANTICS_ENTRIES
    ]
    saved = []
    for owner, attr, make in plan:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(rec):
    """Per-layer totals from the spans and counters of one traced run."""
    n = len(rec)
    dur = [e - s for s, e in zip(rec.start, rec.end)]
    child = [0.0] * n
    for i, p in enumerate(rec.parent):
        if p >= 0:
            child[p] += dur[i]
    total = Counter()
    calls = Counter()
    semantics_self = 0.0
    for i, nid in enumerate(rec.name):
        name = rec.names[nid]
        total[name] += dur[i]
        calls[name] += 1
        if name.startswith("semantics."):
            semantics_self += dur[i] - child[i]
    counts = rec.counts
    sweeps = calls["kernel.grid_max"] - counts["kernel.unsupported"]
    semantics_calls = sum(
        c for name, c in calls.items() if name.startswith("semantics.")
    )
    return {
        "syntax.parse_s": total["syntax.parse"],
        "syntax.parse_calls": calls["syntax.parse"],
        "kernel.grid_s": total["kernel.grid_max"],
        "kernel.grid_calls": calls["kernel.grid_max"],
        "kernel.refuted": counts["kernel.refuted"],
        "kernel.refute_ratio": counts["kernel.refuted"] / sweeps if sweeps else 0.0,
        "kernel.unsupported": counts["kernel.unsupported"],
        "semantics.calls": semantics_calls,
        "semantics.self_s": semantics_self,
        "branches.cells": counts["branches.cells"],
        "branches.iter_cells_s": total["branches.iter_cells"],
        "branches.feasible_point_calls": calls["branches.feasible_point"],
        "branches.feasible_point_s": total["branches.feasible_point"],
        "branches.optimize_cell_calls": calls["branches.optimize_cell"],
        "branches.optimize_cell_s": total["branches.optimize_cell"],
        "simplex.solve_lp_calls": calls["simplex.solve_lp"],
        "simplex.solve_lp_s": total["simplex.solve_lp"],
        "simplex.infeasible": counts["simplex.infeasible"],
        "randomisation.sections_route_s": total["randomisation.sections_route"],
        "randomisation.pointwise_route_s": total["randomisation.pointwise_route"],
        "randomisation.all_sections_calls": calls["randomisation.all_sections"],
        "randomisation.sections_enumerated":
            counts["randomisation.sections_enumerated"],
        "hall.condition_s": total["hall.condition"],
        "hall.allocation_s": total["hall.allocation"],
        "hall.verify_s": total["hall.verify"],
        "rv.arv_defect_s": total["rv.arv_defect"],
        "proofs.find_proof_s": total["proofs.find_proof"],
    }
