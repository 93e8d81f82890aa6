"""The probabilistic Hall marriage theorem on a finite space.

Each item x carries a weight w_x and an event C_x of atoms it may draw
from; atoms are divisible mass.  The covering condition (every subset T of
items satisfies mu(C_T) >= w_T) is decided by minimum cuts (push-relabel),
and allocations are built by exact integer max-flow (Edmonds-Karp), both
after clearing denominators.  The two routes are written apart and neither
reads the other's flow, so the condition-holds / allocation-exists
equivalence is exercised through two independent routes.

Both routes run on integers from input to answer; Fractions are made only
for the masses an allocation returns.  Verification sums and compares
integers over one lcm of the instance's and the allocation's denominators,
so it stays exact for any allocation, whatever its masses' denominators.
"""

from collections import deque
from functools import lru_cache
from math import lcm

from .rationals import format_rat, parse_rat, rat
from .rv import space_from_json, space_to_json


@lru_cache(maxsize=1024)
def _shared(event):
    """One frozenset per distinct event: instances over the same atoms
    repeat a few events many times, and each copy costs over 200 bytes."""
    return event


class HallInstance:
    """Items with weights and admissible events over a finite space."""

    __slots__ = ("space", "ids", "weights", "events")

    def __init__(self, space, items):
        """items: iterable of (id, weight, event-iterable)."""
        self.space = space
        ids = []
        weights = []
        events = []
        for item_id, w, ev in items:
            ids.append(str(item_id))
            w = rat(w)
            if w < 0:
                raise ValueError("item %r has negative weight" % (item_id,))
            weights.append(w)
            events.append(_shared(space.event(ev)))
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item ids")
        self.ids = tuple(ids)
        self.weights = tuple(weights)
        self.events = tuple(events)

    def __len__(self):
        return len(self.ids)

    def __eq__(self, other):
        return (
            isinstance(other, HallInstance)
            and self.space == other.space
            and self.ids == other.ids
            and self.weights == other.weights
            and self.events == other.events
        )


def _min_cut(n_nodes, arcs, source, sink):
    """Value of a minimum source-sink cut, by FIFO push-relabel
    (Goldberg-Tarjan) on integer capacities.  arcs: (u, v, capacity).

    Only the first phase runs: a maximum preflow, whose excess at the sink
    is the cut value.  A node whose label reaches n_nodes cannot reach the
    sink any more and keeps its excess.
    """
    head = []
    cap = []
    out = [[] for _ in range(n_nodes)]
    for u, v, c in arcs:
        out[u].append(len(head)); head.append(v); cap.append(c)
        out[v].append(len(head)); head.append(u); cap.append(0)
    # exact distances to the sink in the residual graph (a global relabel)
    label = [n_nodes] * n_nodes
    label[sink] = 0
    queue = deque([sink])
    while queue:
        v = queue.popleft()
        for e in out[v]:
            u = head[e]
            if label[u] == n_nodes and u != source and cap[e ^ 1]:
                label[u] = label[v] + 1
                queue.append(u)
    label[source] = n_nodes
    excess = [0] * n_nodes
    for e in out[source]:
        c = cap[e]
        if c:
            v = head[e]
            cap[e] = 0
            cap[e ^ 1] += c
            if not excess[v] and v != sink and label[v] < n_nodes:
                queue.append(v)
            excess[v] += c
    while queue:
        u = queue.popleft()
        edges = out[u]
        while True:
            here = label[u] - 1
            low = n_nodes
            for e in edges:
                c = cap[e]
                if not c:
                    continue
                v = head[e]
                if label[v] == here:
                    push = min(c, excess[u])
                    cap[e] = c - push
                    cap[e ^ 1] += push
                    if not excess[v] and v != sink and v != source:
                        queue.append(v)
                    excess[v] += push
                    excess[u] -= push
                    if not excess[u]:
                        break
                elif label[v] < low:
                    low = label[v]
            if not excess[u]:
                break
            # relabel; every residual arc was seen, as none was admissible
            label[u] = low + 1
            if label[u] >= n_nodes:
                break
    return excess[sink]


def hall_condition(instance):
    """(True, None) if mu(C_T) >= w_T for every subset T of items, else
    (False, T) for the lexicographically-least violating T (in declared
    item order).

    max_T w_T - mu(C_T) is a maximum closure, so a minimum cut decides it:
    source -> item x (w_x), item -> atom of C_x (unbounded), atom -> sink
    (mu(atom)), on integers cleared by the common denominator.  The
    condition fails iff the cut is below w_S.  On failure the least
    violator is fixed one item at a time: the next item is the smallest j
    such that some violating T meets items 0..j in exactly the items
    chosen so far plus j, one cut per j; it stops when the chosen items
    violate by themselves.  At most |S| + 1 cuts in all; none is run where
    the chosen items' gain plus every remaining item's need is already <= 0,
    as that bounds every violation in range.
    """
    n = len(instance)
    space = instance.space
    events = instance.events
    scale = lcm(*{w.denominator
                  for ws in (instance.weights, space.weights) for w in ws})
    need = [w.numerator * (scale // w.denominator) for w in instance.weights]
    mass = {a: w.numerator * (scale // w.denominator)
            for a, w in zip(space.ids, space.weights)}
    unbounded = sum(need) + 1

    def surplus(forced, free):
        """max of w_T - mu(C_T) over forced <= T <= forced + free; without
        a cut, a bound <= 0 on it where the forced items' gain plus every
        free item's need is <= 0 (the callers ask only if it is > 0)."""
        covered = set()
        gain = 0
        for i in forced:
            covered |= events[i]
            gain += need[i]
        gain += sum([need[i] for i in free]) - sum(mass[a] for a in covered)
        if gain <= 0:
            return gain
        # node 0 is the source, 1 the sink; atoms are numbered as met
        atom_node = {}
        size = 2
        arcs = []
        for i in free:
            rest = events[i] - covered
            if not need[i] or not rest:  # no arc, or always worth taking
                continue
            item = size
            size += 1
            arcs.append((0, item, need[i]))
            for a in rest:
                if a not in atom_node:
                    atom_node[a] = size
                    size += 1
                    arcs.append((size - 1, 1, mass[a]))
                arcs.append((item, atom_node[a], unbounded))
        return gain - _min_cut(size, arcs, 0, 1) if arcs else gain

    if surplus((), range(n)) <= 0:
        return True, None
    chosen = []
    j = 0
    while not chosen or surplus(chosen, ()) <= 0:
        while surplus(chosen + [j], range(j + 1, n)) <= 0:
            j += 1
        chosen.append(j)
        j += 1
    # tuple() of a list, not of a generator: CPython resizes the latter,
    # and resized tuples pile up in its free lists
    return False, tuple([instance.ids[i] for i in chosen])


class Allocation:
    """Nonnegative rational mass per (item, atom) pair; zero entries are
    not stored."""

    __slots__ = ("masses",)

    def __init__(self, masses):
        self.masses = {
            (str(x), str(a)): rat(m) for (x, a), m in masses.items() if m != 0
        }
        for m in self.masses.values():
            if m < 0:
                raise ValueError("negative mass")

    def __eq__(self, other):
        return isinstance(other, Allocation) and self.masses == other.masses

    def __repr__(self):
        entries = ", ".join(
            "%s@%s: %s" % (x, a, m) for (x, a), m in sorted(self.masses.items())
        )
        return "Allocation({%s})" % entries


def _max_flow(n_nodes, arcs, source, sink):
    """Integer Edmonds-Karp.  arcs: (u, v, capacity); returns the flow per
    arc (parallel arcs kept apart) and the total value."""
    head = []
    cap = []
    nxt = [[] for _ in range(n_nodes)]
    for u, v, c in arcs:
        nxt[u].append(len(head)); head.append(v); cap.append(c)
        nxt[v].append(len(head)); head.append(u); cap.append(0)
    value = 0
    while True:
        parent_arc = [-1] * n_nodes
        parent_arc[source] = -2
        queue = deque([source])
        while queue and parent_arc[sink] == -1:
            u = queue.popleft()
            for e in nxt[u]:
                v = head[e]
                if cap[e] and parent_arc[v] == -1:
                    parent_arc[v] = e
                    queue.append(v)
        if parent_arc[sink] == -1:
            break
        path = []
        v = sink
        while v != source:
            e = parent_arc[v]
            path.append(e)
            v = head[e ^ 1]
        bottleneck = min([cap[e] for e in path])
        for e in path:
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
        value += bottleneck
    flows = [cap[2 * i + 1] for i in range(len(arcs))]
    return value, flows


def _common_denominator(*groups):
    """The lcm of the denominators of every rational in the groups."""
    return lcm(*{w.denominator for ws in groups for w in ws})


def _cleared(weights, scale):
    """Each rational w as the integer w * scale, for a scale its denominator
    divides: exactly int(w * scale), without a Fraction product."""
    return [w.numerator * (scale // w.denominator) for w in weights]


def solve_allocation(instance):
    """An exact allocation, or None when the covering condition fails.

    Network: source -> item (capacity w_x), item -> atom for atoms of C_x
    (unbounded), atom -> sink (capacity mu(atom)); all capacities cleared
    to integers by the common denominator, then integral max-flow.  The
    flow is integer throughout; Fractions are made only for the masses
    returned.
    """
    space = instance.space
    scale = _common_denominator(instance.weights, space.weights)
    n_items = len(instance)
    n_atoms = len(space)
    source = 0
    sink = 1 + n_items + n_atoms
    need = _cleared(instance.weights, scale)
    supply = sum(need)
    arcs = [(source, 1 + i, c) for i, c in enumerate(need)]
    item_atom_start = len(arcs)
    pair_of_arc = []
    for i, ev in enumerate(instance.events):
        # in space order: the flow, and so the allocation, follows the order
        # arcs are added in, and a frozenset's order follows string hashing
        for j in sorted(map(space.index, ev)):
            arcs.append((1 + i, 1 + n_items + j, supply))
            pair_of_arc.append((instance.ids[i], space.ids[j]))
    for j, c in enumerate(_cleared(space.weights, scale)):
        arcs.append((1 + n_items + j, sink, c))
    value, flows = _max_flow(sink + 1, arcs, source, sink)
    if value != supply:
        return None
    masses = {}
    for k, pair in enumerate(pair_of_arc):
        f = flows[item_atom_start + k]
        if f:
            masses[pair] = rat(f, scale)
    return Allocation(masses)


def verify_allocation(instance, allocation):
    """Exact check of every allocation invariant, in one pass over the
    masses; never raises on content.

    Sums and comparisons are on integers over one common denominator D,
    the lcm of the instance's weight denominators and of the allocation's
    mass denominators, so the check stays exact for any allocation,
    whatever denominators its masses have.
    """
    space = instance.space
    masses = allocation.masses
    scale = _common_denominator(instance.weights, space.weights,
                                masses.values())
    event_of = dict(zip(instance.ids, instance.events))
    item_total = dict.fromkeys(instance.ids, 0)
    atom_total = dict.fromkeys(space.ids, 0)
    for (x, a), m in masses.items():
        # an item's event holds only atoms of the space
        if a not in event_of.get(x, ()) or m.numerator < 0:
            return False
        units = m.numerator * (scale // m.denominator)
        item_total[x] += units
        atom_total[a] += units
    return item_total == dict(
        zip(instance.ids, _cleared(instance.weights, scale))
    ) and all(t <= c for t, c in zip(atom_total.values(),
                                     _cleared(space.weights, scale)))


def realizable_labels(instance, allocation):
    """Which items' shares are honest events: drawing either none or all of
    every atom's mass.  Such a share is an exact D_x subset of C_x with
    mu(D_x) = w_x.  Masses are compared as integers over one common
    denominator, as in verify_allocation."""
    space = instance.space
    masses = allocation.masses
    scale = _common_denominator(space.weights, masses.values())
    full = dict(zip(space.ids, _cleared(space.weights, scale)))
    labels = dict.fromkeys(instance.ids, True)
    for (x, a), m in masses.items():
        if x in labels and a in full:
            units = m.numerator * (scale // m.denominator)
            if units and units != full[a]:
                labels[x] = False
    return labels


# --- JSON forms -----------------------------------------------------------------


def instance_to_json(instance):
    return {
        "space": space_to_json(instance.space),
        "items": [
            {"id": x, "w": format_rat(w), "C": sorted(ev)}
            for x, w, ev in zip(instance.ids, instance.weights, instance.events)
        ],
    }


def instance_from_json(data):
    try:
        space = space_from_json(data["space"])
        items = [
            (entry["id"], parse_rat(entry["w"]), entry["C"])
            for entry in data["items"]
        ]
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError("malformed instance: %s" % (e,)) from None
    return HallInstance(space, items)


def allocation_to_json(allocation):
    return {
        "masses": [
            {"item": x, "atom": a, "m": format_rat(m)}
            for (x, a), m in sorted(allocation.masses.items())
        ]
    }


def allocation_from_json(data):
    try:
        masses = {
            (entry["item"], entry["atom"]): parse_rat(entry["m"])
            for entry in data["masses"]
        }
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError("malformed allocation: %s" % (e,)) from None
    return Allocation(masses)
