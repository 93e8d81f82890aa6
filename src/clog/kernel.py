"""Exhaustive dyadic-grid evaluation of formulas, exactly, in integers.

A formula is evaluated at every point of the grid {0, 1/D, ..., 1}^n, once
per distinct subformula: the positions of the caller's syntax.subformulas,
children before parents.  All arithmetic is integer: values are scaled by
S = D * 2^h where h is the number of half nodes in the formula's tree.  The
value computed at a subformula whose tree contains k halvings is an integer
multiple of 2^(h-k) after scaling (induction over the tree: leaves are
multiples of 2^h * (S/D-units), neg and - preserve the property, half
consumes one factor of two), so the right shift of half is always exact and
the whole evaluation is exact rational arithmetic in disguise.  The largest
count on a path would do as well, but the tree's count sets the halving
guard, and so which formulas the sweep takes and which countermodel it finds.

The sweep evaluates every grid point at once on Python ints.  Grid point i,
in odometer order (last atom fastest), is lane i of one int: the bits
[i*W, (i+1)*W), where the lane width W is the smallest multiple of 8 above
S.bit_length().  Every lane value lies in [0, S], so each lane's top bit is a
spare guard bit, and each subformula's int comes from its children's ints by
a few big-int operations that never carry or borrow across a lane boundary:

- neg subtracts every lane from S;
- half shifts the whole int right by one, which moves no bit between lanes
  because every lane's low bit is 0 (the scaling argument above);
- (a - b) sets every guard bit of a before subtracting b, so a lane's guard
  survives exactly where the difference is nonnegative; those lanes keep
  their low bits (the difference) and the others become 0.

Each int is dropped after its last consumer.  The first grid point attaining
the maximum is returned; with stop_at_positive, the first grid point with a
positive value.
"""

from .rationals import rat
from .syntax import Atom, Const0, Half, Monus, Neg

# These limits decide which formulas the sweep takes (the rest go straight to
# cell enumeration), and so which countermodel a refutation reports.  The
# stack is the one a postfix evaluation of the formula's tree would need.
_MAX_STACK = 256
_MAX_ATOMS = 16
_MAX_POINTS = 2_000_000
_MAX_SCALE = 1 << 61
_HALF_CAP = 64  # half counts stop here: the scale guard fails from 62 on


class KernelUnsupported(ValueError):
    """Raised when a formula or grid falls outside the kernel's limits."""


def active_backend():
    """Name of the sweep in use; there is one, in pure Python."""
    return "python"


def _first_error(nodes, pos, index):
    """The error of a formula that is not propositional over the atoms: at
    its tree's first offending node, left to right, outermost first."""
    errors = []
    for f in nodes:
        t = type(f)
        if t is Monus:
            e = errors[pos[id(f.left)]] or errors[pos[id(f.right)]]
        elif t is Neg or t is Half:
            e = errors[pos[id(f.body)]]
        elif t is Atom:
            e = None if f.name in index else KeyError(
                "atom %r not in atom order" % f.name)
        else:
            e = None if t is Const0 else TypeError(
                "not a propositional formula: %r" % (f,))
        errors.append(e)
    return errors[-1]


def _sweep(nodes, pos, index, last, n_atoms, denom, scale, first_positive):
    """(scaled value, grid index) of the first maximal grid point, or of the
    first positive one when first_positive and one exists."""
    side = denom + 1
    total = side**n_atoms
    lane_bytes = scale.bit_length() // 8 + 1
    width = 8 * lane_bytes
    top = width - 1
    unit = scale // denom
    levels = [(v * unit).to_bytes(lane_bytes, "little") for v in range(side)]

    def column(k):
        # atom k holds grid level v on runs of `stride` consecutive points
        stride = side ** (n_atoms - 1 - k)
        period = b"".join([level * stride for level in levels])
        return int.from_bytes(period * (total // (side * stride)), "little")

    ones = int.from_bytes((1).to_bytes(lane_bytes, "little") * total, "little")
    full = ones * scale
    guards = ones << top
    lanes = []
    for p, f in enumerate(nodes):
        t = type(f)
        if t is Monus:
            a, b = pos[id(f.left)], pos[id(f.right)]
            d = (lanes[a] | guards) - lanes[b]
            g = d & guards
            x = d & (g - (g >> top))
            if last[b] == p:
                lanes[b] = None
        elif t is Neg or t is Half:
            a = pos[id(f.body)]
            x = full - lanes[a] if t is Neg else lanes[a] >> 1
        else:
            lanes.append(column(index[f.name]) if t is Atom else 0)
            continue
        if last[a] == p:
            lanes[a] = None
        lanes.append(x)
    values = lanes[-1]
    if not values:
        return 0, 0
    if first_positive:
        i = ((values & -values).bit_length() - 1) // width
        return (values >> (i * width)) & ((1 << width) - 1), i
    raw = values.to_bytes(total * lane_bytes, "little")
    decoded = [int.from_bytes(raw[i:i + lane_bytes], "little")
               for i in range(0, len(raw), lane_bytes)]
    best = max(decoded)
    return best, decoded.index(best)


def grid_max(term, atom_order, denom, stop_at_positive=False):
    """Exact maximum over the dyadic grid of denominator denom of the
    formula whose syntax.subformulas(formula) the caller passes as term.

    Returns (value, assignment) with exact rationals.  With
    stop_at_positive=True, returns at the first grid point with positive
    value instead of the global maximum (the assignment is still exact and
    its value is the one returned).
    """
    if denom < 1:
        raise ValueError("denominator must be >= 1")
    nodes, pos = term
    index = {name: i for i, name in enumerate(atom_order)}
    halves = []  # half nodes in each position's tree, up to _HALF_CAP
    stack = []  # each position's stack depth in postfix order
    last = [0] * len(nodes)  # each position's last consumer
    for p, f in enumerate(nodes):
        t = type(f)
        if t is Monus:
            a, b = pos[id(f.left)], pos[id(f.right)]
            halves.append(min(halves[a] + halves[b], _HALF_CAP))
            stack.append(max(stack[a], stack[b] + 1))
            last[a] = last[b] = p
        elif t is Neg or t is Half:
            a = pos[id(f.body)]
            halves.append(min(halves[a] + (t is Half), _HALF_CAP))
            stack.append(stack[a])
            last[a] = p
        elif t is Const0 or (t is Atom and f.name in index):
            halves.append(0)
            stack.append(1)
        else:
            raise _first_error(nodes, pos, index)
    n_atoms = len(atom_order)
    if n_atoms > _MAX_ATOMS or stack[-1] > _MAX_STACK:
        raise KernelUnsupported("formula too large for the grid kernel")
    if (denom + 1) ** n_atoms > _MAX_POINTS:
        raise KernelUnsupported("grid too large")
    scale = denom << halves[-1]
    if scale > _MAX_SCALE:
        raise KernelUnsupported("too many halvings for the grid kernel")
    best, i = _sweep(nodes, pos, index, last, n_atoms, denom, scale,
                     stop_at_positive)
    point = []
    for _ in atom_order:
        i, level = divmod(i, denom + 1)
        point.append(rat(level, denom))
    return rat(best, scale), dict(zip(atom_order, reversed(point)))
