"""Exhaustive dyadic-grid evaluation of formulas, exactly, in integers.

A formula compiles to a postfix bytecode (PUSH0, PUSH_ATOM, NEG, HALF, MONUS)
which is then evaluated at every point of the grid {0, 1/D, ..., 1}^n.  All
arithmetic is integer: values are scaled by S = D * 2^h where h is the number
of HALF instructions in the program.  The value computed at a node whose
subtree contains k halvings is an integer multiple of 2^(h-k) after scaling
(induction over the tree: leaves are multiples of 2^h * (S/D-units), NEG and
MONUS preserve the property, HALF consumes one factor of two), so the right
shift in HALF is always exact and the whole evaluation is exact rational
arithmetic in disguise.

The sweep evaluates every grid point at once on Python ints.  Grid point i,
in odometer order (last atom fastest), is lane i of one int: the bits
[i*W, (i+1)*W), where the lane width W is the smallest multiple of 8 above
S.bit_length().  Every lane value lies in [0, S], so each lane's top bit is a
spare guard bit, and each instruction acts on all lanes with a few big-int
operations that never carry or borrow across a lane boundary:

- NEG subtracts every lane from S;
- HALF shifts the whole int right by one, which moves no bit between lanes
  because every lane's low bit is 0 (the scaling argument above);
- MONUS sets every guard bit before subtracting, so a lane's guard survives
  exactly where the difference is nonnegative; those lanes keep their low
  bits (the difference) and the others become 0.

The first grid point attaining the maximum is returned; with
stop_at_positive, the first grid point with a positive value.
"""

from collections import namedtuple

from . import syntax
from .rationals import rat

OP_PUSH0, OP_PUSH_ATOM, OP_NEG, OP_HALF, OP_MONUS = range(5)

# These limits decide which formulas the sweep takes (the rest go straight to
# cell enumeration), and so which countermodel a refutation reports.
_MAX_STACK = 256
_MAX_ATOMS = 16
_MAX_POINTS = 2_000_000
_MAX_SCALE = 1 << 61


class KernelUnsupported(ValueError):
    """Raised when a formula or grid falls outside the kernel's limits."""


Program = namedtuple("Program", "codes args n_atoms n_half max_stack")


def compile_formula(formula, atom_order):
    """Flatten a propositional formula into bytecode over the given atoms."""
    index = {name: i for i, name in enumerate(atom_order)}
    codes = []
    args = []
    depth = max_stack = 0
    stack = [formula]
    while stack:
        f = stack.pop()
        t = type(f)
        if t is int:  # an opcode pushed after its operands' nodes
            codes.append(f)
            args.append(0)
            if f == OP_MONUS:
                depth -= 1
        elif t is syntax.Monus:
            stack += (OP_MONUS, f.right, f.left)
        elif t is syntax.Neg or t is syntax.Half:
            stack += (OP_NEG if t is syntax.Neg else OP_HALF, f.body)
        elif t is syntax.Const0 or t is syntax.Atom:
            if t is syntax.Const0:
                codes.append(OP_PUSH0)
                args.append(0)
            elif f.name in index:
                codes.append(OP_PUSH_ATOM)
                args.append(index[f.name])
            else:
                raise KeyError("atom %r not in atom order" % f.name)
            depth += 1
            max_stack = max(max_stack, depth)
        else:
            raise TypeError("not a propositional formula: %r" % (f,))
    n_half = codes.count(OP_HALF)
    return Program(codes, args, len(atom_order), n_half, max_stack)


def active_backend():
    """Name of the sweep in use; there is one, in pure Python."""
    return "python"


def _sweep(program, denom, scale, first_positive):
    """(scaled value, grid index) of the first maximal grid point, or of the
    first positive one when first_positive and one exists."""
    n_atoms = program.n_atoms
    side = denom + 1
    total = side**n_atoms
    lane_bytes = scale.bit_length() // 8 + 1
    width = 8 * lane_bytes
    top = width - 1
    unit = scale // denom

    def lane(value):
        return value.to_bytes(lane_bytes, "little")

    def column(k):
        # atom k holds grid level v on runs of `stride` consecutive points
        stride = side ** (n_atoms - 1 - k)
        period = b"".join(lane(v * unit) * stride for v in range(side))
        return int.from_bytes(period * (total // (side * stride)), "little")

    ones = int.from_bytes(lane(1) * total, "little")
    full = ones * scale
    guards = ones << top
    columns = {}
    stack = []
    for op, arg in zip(program.codes, program.args):
        if op == OP_PUSH0:
            stack.append(0)
        elif op == OP_PUSH_ATOM:
            if arg not in columns:
                columns[arg] = column(arg)
            stack.append(columns[arg])
        elif op == OP_NEG:
            stack[-1] = full - stack[-1]
        elif op == OP_HALF:
            stack[-1] >>= 1
        else:
            b = stack.pop()
            d = (stack[-1] | guards) - b
            g = d & guards
            stack[-1] = d & (g - (g >> top))
    values = stack[0]
    if not values:
        return 0, 0
    if first_positive:
        pos = ((values & -values).bit_length() - 1) // width
        return (values >> (pos * width)) & ((1 << width) - 1), pos
    raw = values.to_bytes(total * lane_bytes, "little")
    decoded = [
        int.from_bytes(raw[i:i + lane_bytes], "little")
        for i in range(0, len(raw), lane_bytes)
    ]
    best = max(decoded)
    return best, decoded.index(best)


def grid_max(formula, atom_order, denom, stop_at_positive=False):
    """Exact maximum of the formula over the dyadic grid of denominator denom.

    Returns (value, assignment) with exact rationals.  With
    stop_at_positive=True, returns at the first grid point with positive
    value instead of the global maximum (the assignment is still exact and
    its value is the one returned).
    """
    if denom < 1:
        raise ValueError("denominator must be >= 1")
    program = compile_formula(formula, atom_order)
    if program.n_atoms > _MAX_ATOMS or program.max_stack > _MAX_STACK:
        raise KernelUnsupported("formula too large for the grid kernel")
    if (denom + 1) ** program.n_atoms > _MAX_POINTS:
        raise KernelUnsupported("grid too large")
    scale = denom << program.n_half
    if scale > _MAX_SCALE:
        raise KernelUnsupported("too many halvings for the grid kernel")
    best, pos = _sweep(program, denom, scale, stop_at_positive)
    side = denom + 1
    point = []
    for _ in atom_order:
        pos, level = divmod(pos, side)
        point.append(level)
    point.reverse()
    assignment = {
        name: rat(level, denom) for name, level in zip(atom_order, point)
    }
    return rat(best, scale), assignment
