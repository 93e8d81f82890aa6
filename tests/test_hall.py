import math
import random
import time
from fractions import Fraction

import pytest

import oracles
from clog import hall
from clog.rationals import rat
from clog.rv import FiniteProbSpace


def uniform2():
    return FiniteProbSpace.uniform(["w1", "w2"])


def test_condition_examples():
    sp = uniform2()
    inst = hall.HallInstance(sp, [("x", rat(1, 2), ["w1", "w2"])])
    assert hall.hall_condition(inst) == (True, None)

    blocked = hall.HallInstance(
        sp, [("x", rat(1, 2), ["w1"]), ("y", rat(1, 2), ["w1"])]
    )
    ok, bad = hall.hall_condition(blocked)
    assert not ok and bad == ("x", "y")

    fine = hall.HallInstance(
        sp, [("x", rat(1, 2), ["w1"]), ("y", rat(1, 2), ["w1", "w2"])]
    )
    assert hall.hall_condition(fine) == (True, None)


def test_condition_least_violation():
    sp = uniform2()
    # subsets are tried in lexicographic order of the declared item ids:
    # (x), (x,y), (y).  Supersets of x stay fine because C_x is everything,
    # so the first reported violation is the singleton (y).
    inst = hall.HallInstance(
        sp, [("x", 0, ["w1", "w2"]), ("y", rat(3, 4), ["w2"])]
    )
    ok, bad = hall.hall_condition(inst)
    assert not ok and bad == ("y",)
    # a violating pair can precede a violating later singleton
    pair = hall.HallInstance(
        sp, [("x", rat(1, 4), ["w1"]), ("y", 1, ["w2"])]
    )
    assert hall.hall_condition(pair) == (False, ("x", "y"))


def test_instance_validation():
    sp = uniform2()
    with pytest.raises(ValueError):
        hall.HallInstance(sp, [("x", -1, ["w1"])])
    with pytest.raises(ValueError):
        hall.HallInstance(sp, [("x", 0, ["nope"])])
    with pytest.raises(ValueError):
        hall.HallInstance(sp, [("x", 0, []), ("x", 0, [])])


def test_solve_allocation_examples():
    sp = uniform2()
    fine = hall.HallInstance(
        sp, [("x", rat(1, 2), ["w1"]), ("y", rat(1, 2), ["w1", "w2"])]
    )
    alloc = hall.solve_allocation(fine)
    assert alloc is not None
    assert hall.verify_allocation(fine, alloc)
    assert alloc.masses["x", "w1"] == rat(1, 2)
    assert alloc.masses["y", "w2"] == rat(1, 2)

    blocked = hall.HallInstance(
        sp, [("x", rat(1, 2), ["w1"]), ("y", rat(1, 2), ["w1"])]
    )
    assert hall.solve_allocation(blocked) is None


def test_tight_single_item():
    sp = FiniteProbSpace(
        [("a", rat(1, 2)), ("b", rat(1, 3)), ("c", rat(1, 6))]
    )
    inst = hall.HallInstance(sp, [("x", rat(1, 2), ["b", "c"])])
    alloc = hall.solve_allocation(inst)
    assert alloc is not None and hall.verify_allocation(inst, alloc)
    # C_x is saturated exactly
    assert alloc.masses["x", "b"] == rat(1, 3)
    assert alloc.masses["x", "c"] == rat(1, 6)
    assert hall.realizable_labels(inst, alloc) == {"x": True}


def test_verify_rejects_bad_allocations():
    sp = uniform2()
    inst = hall.HallInstance(sp, [("x", rat(1, 2), ["w1"])])
    good = hall.solve_allocation(inst)
    assert hall.verify_allocation(inst, good)
    outside = hall.Allocation({("x", "w2"): rat(1, 2)})
    assert not hall.verify_allocation(inst, outside)
    short = hall.Allocation({("x", "w1"): rat(1, 4)})
    assert not hall.verify_allocation(inst, short)
    over = hall.Allocation({("x", "w1"): 1})
    assert not hall.verify_allocation(inst, over)
    stranger = hall.Allocation({("x", "w1"): rat(1, 2), ("z", "w2"): rat(1, 4)})
    assert not hall.verify_allocation(inst, stranger)
    foreign = hall.Allocation({("x", "w1"): rat(1, 2), ("x", "w9"): rat(1, 4)})
    assert not hall.verify_allocation(inst, foreign)
    # each item gets its weight, but together they overdraw w1
    pair = hall.HallInstance(
        sp, [("x", rat(1, 2), ["w1", "w2"]), ("y", rat(1, 2), ["w1", "w2"])])
    crowded = hall.Allocation({("x", "w1"): rat(1, 2), ("y", "w1"): rat(1, 2)})
    assert not hall.verify_allocation(pair, crowded)
    shared = hall.Allocation({("x", "w1"): rat(1, 4), ("x", "w2"): rat(1, 4),
                              ("y", "w1"): rat(1, 4), ("y", "w2"): rat(1, 4)})
    assert hall.verify_allocation(pair, shared)
    # masses in thirds, sixths and sevenths on a space of halves: the
    # common denominator must cover the masses too
    spread = hall.HallInstance(sp, [("x", rat(1, 2), ["w1", "w2"])])
    thirds = hall.Allocation({("x", "w1"): rat(1, 3), ("x", "w2"): rat(1, 6)})
    assert hall.verify_allocation(spread, thirds)
    sevenths = hall.Allocation({("x", "w1"): rat(1, 3), ("x", "w2"): rat(1, 7)})
    assert not hall.verify_allocation(spread, sevenths)
    # an item of weight zero is paid by no mass at all
    idle = hall.HallInstance(sp, [("x", rat(1, 2), ["w1"]), ("z", 0, ["w2"])])
    assert hall.verify_allocation(idle, hall.Allocation({("x", "w1"): rat(1, 2)}))


def random_instance(rng):
    n_atoms = rng.randint(1, 6)
    ws = oracles.random_weights(rng, n_atoms)
    sp = FiniteProbSpace([("a%d" % i, w) for i, w in enumerate(ws)])
    n_items = rng.randint(1, 6)
    items = []
    for i in range(n_items):
        w = Fraction(rng.randint(0, 6), rng.choice([4, 6, 8, 12]))
        ev = [a for a in sp.ids if rng.random() < 0.5]
        items.append(("x%d" % i, w, ev))
    return hall.HallInstance(sp, items)


def perturbations(inst, alloc):
    """Copies of a solved allocation, each with one change: a mass moved
    outside its item's event, one unit short, one unit over an atom's
    weight, one unit moved to another atom of the event, a negative mass,
    an unknown item or atom, or a mass in sevenths of a unit, which no
    denominator of random_instance divides."""
    space = inst.space
    scale = math.lcm(*(w.denominator for w in inst.weights + space.weights))
    assert scale % 7
    unit = Fraction(1, scale)
    weight = dict(zip(space.ids, space.weights))
    event_of = dict(zip(inst.ids, inst.events))
    out = []

    def changed(pair, delta, to=None):
        masses = dict(alloc.masses)
        masses[pair] -= delta
        if to is not None:
            masses[to] = masses.get(to, 0) + delta
        return hall.Allocation(masses)

    for pair in sorted(alloc.masses):
        x, a = pair
        m = alloc.masses[pair]
        outside = [b for b in space.ids if b not in event_of[x]]
        if outside:
            out.append(changed(pair, m, (x, outside[0])))
        out.append(changed(pair, unit))
        spare = weight[a] - sum(m for (_, b), m in alloc.masses.items() if b == a)
        out.append(changed(pair, -(spare + unit)))
        others = sorted(event_of[x] - {a})
        if others:
            out.append(changed(pair, unit, (x, others[0])))
            out.append(changed(pair, unit / 7, (x, others[-1])))
        out.append(changed(pair, -unit / 7))
        negative = hall.Allocation(alloc.masses)
        negative.masses[pair] = -m  # the constructor refuses it
        out.append(negative)
        out.append(changed(pair, unit, ("stranger", a)))
        out.append(changed(pair, unit, (x, "nowhere")))
    return out


def test_verify_matches_fraction_verifier():
    """The integer verifier judges as the Fraction one on solved
    allocations and on copies with one change each."""
    rng = random.Random(44)
    cases = accepted = 0
    while cases < 1000:
        inst = random_instance(rng)
        alloc = hall.solve_allocation(inst)
        if alloc is None:
            continue
        for case in [alloc] + perturbations(inst, alloc):
            want = oracles.verify_allocation_fractions(inst, case)
            assert hall.verify_allocation(inst, case) == want, (
                hall.instance_to_json(inst), case)
            cases += 1
            accepted += want
    assert accepted >= 100 and cases - accepted >= 500


def test_condition_iff_allocation():
    """Max-flow feasibility must coincide with the exhaustive subset check."""
    rng = random.Random(40)
    holds = fails = 0
    for _ in range(300):
        inst = random_instance(rng)
        ok, bad = hall.hall_condition(inst)
        alloc = hall.solve_allocation(inst)
        if ok:
            holds += 1
            assert alloc is not None
            assert hall.verify_allocation(inst, alloc)
        else:
            fails += 1
            assert alloc is None
            # the reported subset really violates the condition
            idx = [inst.ids.index(x) for x in bad]
            total = sum(inst.weights[i] for i in idx)
            union = frozenset().union(*(inst.events[i] for i in idx))
            assert inst.space.mu(union) < total
    assert holds >= 30 and fails >= 30


def test_full_weight_gives_partition():
    # when the weights sum to 1 every atom is fully used
    rng = random.Random(41)
    built = 0
    while built < 20:
        n_atoms = rng.randint(1, 5)
        ws = oracles.random_weights(rng, n_atoms)
        sp = FiniteProbSpace([("a%d" % i, w) for i, w in enumerate(ws)])
        n_items = rng.randint(1, 4)
        parts = oracles.random_weights(rng, n_items)
        items = []
        for i, w in enumerate(parts):
            ev = [a for a in sp.ids if rng.random() < 0.7]
            items.append(("x%d" % i, w, ev))
        inst = hall.HallInstance(sp, items)
        alloc = hall.solve_allocation(inst)
        if alloc is None:
            continue
        built += 1
        for a, w in zip(sp.ids, sp.weights):
            assert sum(m for (_, b), m in alloc.masses.items() if b == a) == w


def test_realizable_labels_split_atom():
    sp = uniform2()
    inst = hall.HallInstance(
        sp, [("x", rat(1, 4), ["w1"]), ("y", rat(3, 4), ["w1", "w2"])]
    )
    alloc = hall.solve_allocation(inst)
    assert alloc is not None and hall.verify_allocation(inst, alloc)
    labels = hall.realizable_labels(inst, alloc)
    # x draws a quarter out of a half-weight atom: not an event
    assert labels == {"x": False, "y": False}


def test_json_round_trip():
    sp = uniform2()
    inst = hall.HallInstance(
        sp, [("x", rat(1, 2), ["w1"]), ("y", rat(1, 3), ["w1", "w2"])]
    )
    blob = hall.instance_to_json(inst)
    assert blob["items"][0] == {"id": "x", "w": "1/2", "C": ["w1"]}
    assert hall.instance_from_json(blob) == inst
    alloc = hall.solve_allocation(inst)
    back = hall.allocation_from_json(hall.allocation_to_json(alloc))
    assert back == alloc
    with pytest.raises(ValueError):
        hall.instance_from_json({"items": []})


def parity_instance(rng):
    """0-14 items over 1-6 atoms; some weights are zero, some events empty."""
    n_atoms = rng.randint(1, 6)
    ws = oracles.random_weights(rng, n_atoms)
    sp = FiniteProbSpace([("a%d" % i, w) for i, w in enumerate(ws)])
    n_items = rng.randint(0, 14)
    den = rng.choice([2, 3, 4]) * max(n_items, 1)
    items = []
    for i in range(n_items):
        w = Fraction(rng.randint(0, 3), den) if rng.random() > 0.15 else 0
        if rng.random() < 0.08:
            ev = []
        else:
            ev = [a for a in sp.ids if rng.random() < 0.4]
        items.append(("x%d" % i, w, ev))
    return hall.HallInstance(sp, items)


def test_condition_matches_enumeration():
    """The min-cut route pins the same least violator as all 2^n subsets."""
    rng = random.Random(42)
    holds = fails = longer = 0
    for _ in range(1000):
        inst = parity_instance(rng)
        want = oracles.hall_condition_by_enumeration(inst)
        assert hall.hall_condition(inst) == want, hall.instance_to_json(inst)
        holds += want[0]
        fails += not want[0]
        longer += not want[0] and len(want[1]) >= 3
    assert holds >= 200 and fails >= 500 and longer >= 50


def planted_instance(rng, n_items, n_atoms, feasible):
    """An instance whose answer is known by construction, and the ids of
    its least violator (None when feasible).

    Masses come in whole units of 1/(128 * atoms).  Each item takes at most
    a quarter of what each atom of its event still has, so every atom keeps
    at least one unit.  An infeasible instance also has three items, spread
    over the order with one of them last, on one or two reserved atoms:
    together they ask half a unit more than those atoms hold, so exactly
    these three violate, and the search meets them only at the last item.
    """
    unit = 128 * n_atoms
    atoms = ["a%d" % i for i in range(n_atoms)]
    weights = oracles.random_weights(rng, n_atoms)
    sp = FiniteProbSpace(list(zip(atoms, weights)))
    reserved = [] if feasible else rng.sample(atoms, rng.randint(1, 2))
    shared = [a for a in atoms if a not in reserved]
    left = {a: w * unit for a, w in zip(atoms, weights)}
    blocked = set()
    if not feasible:
        blocked = set(rng.sample(range(n_items - 1), 2)) | {n_items - 1}
        mass = sum(w for a, w in zip(atoms, weights) if a in reserved)
        need = (mass + Fraction(1, 2 * unit)) / 3
    items = []
    for i in range(n_items):
        if i in blocked:
            items.append(("x%d" % i, need, reserved))
            continue
        event = rng.sample(shared, rng.randint(1, 4))
        total = 0
        for a in event:
            take = rng.randint(0, int(left[a]) // 4)
            left[a] -= take
            total += take
        items.append(("x%d" % i, Fraction(total, unit), event))
    violator = tuple("x%d" % i for i in sorted(blocked)) or None
    return hall.HallInstance(sp, items), violator


@pytest.mark.parametrize("feasible", [True, False])
def test_condition_on_200_items(feasible):
    inst, violator = planted_instance(random.Random(43), 200, 40, feasible)
    t0 = time.perf_counter()
    ok, bad = hall.hall_condition(inst)
    elapsed = time.perf_counter() - t0
    assert (ok, bad) == (feasible, violator)
    assert (hall.solve_allocation(inst) is None) == (not ok)
    assert elapsed < 1.0, "took %.2fs" % elapsed
