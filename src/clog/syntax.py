"""Formula syntax: AST, sugar expansions, parser and canonical printer.

Truth values live in [0,1] with 0 playing the role of "true".  The core
propositional connectives are negation (1-x), halving (x/2) and truncated
subtraction (max(0, x-y)); everything else (min, max, truncated addition,
absolute difference, the constant 1 and the dyadic constants 2^-n) is sugar
that expands into the core at construction/parse time.

The first-order layer shares the connective nodes and adds predicate
applications, terms and the inf/sup quantifiers, with a signature carrying a
Lipschitz constant per argument slot (modulus of continuity delta(eps) =
eps/lambda).

Grammar (leading keywords make it LL(1); binary operators always take
parentheses):

    formula  := "0" | "1" | ident | "neg" formula | "half" formula
              | "(" formula op formula ")" | "2^-" nat (at most 10,000)
              | "|" formula "-" formula "|"
    op       := "-" | "/\\" | "\\/" | "(+)"
    lformula := formula-clauses | "inf" ident "." lformula
              | "sup" ident "." lformula | ident "(" termlist ")"
    term     := ident | ident "(" termlist ")"

Identifiers are [a-zA-Z_][a-zA-Z0-9_]*; `neg half inf sup` are reserved.
The printer emits only core nodes, fully parenthesized, and
parse(print(f)) == f.  The tokens are the strings one regex's matches
capture, read by index; a token's offset is computed only for a ParseError.

AST nodes are immutable `__slots__` classes (no dataclasses, whose import
costs every command line run) with structural equality and hashing and a
constructor-style repr, none of which recurses.

`subformulas` is the one traversal of the formula DAG: it keeps an explicit
stack and identifies structurally equal subformulas by position, never by
hashing a node (whose first hash walks its whole subtree); `fold`
interprets formulas, `free_variables_at` gives each position's free
variables and `rebuild` rewrites formulas over it.  These, the parser and
the printer (which walks the tree, as large as its output) use no Python
recursion, and both first-order evaluation routes in `randomisation` are
passes over positions, so formulas of either kind may nest to any depth;
only terms still recurse.
"""

import re
import sys

from .rationals import rat

METRIC_SYMBOL = "d"
KEYWORDS = frozenset(["neg", "half", "inf", "sup"])
# Largest n the parser takes in 2^-n: each halving is one node, and beyond
# about 14,000 the value 2^-n no longer prints (Python's int-to-str limit).
MAX_DYADIC_EXPONENT = 10_000


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


# --- AST ------------------------------------------------------------------

_set = object.__setattr__


class _Node:
    """An immutable AST node: a __slots__ class whose fields, named in
    `_fields` in constructor order, __init__ sets once.

    Equality and hashing are structural and the repr reads like a
    constructor call, `Monus(left=Atom(name='p'), right=Const0())`.  All
    three walk the subformulas with an explicit stack (argument terms are
    still compared, hashed and shown recursively), so formulas may nest to
    any depth.  A node's hash is computed on first use and kept in `_hash`
    (None until then).
    """

    __slots__ = ("_hash",)
    _fields = __match_args__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _equal(self, other)

    def __hash__(self):
        h = self._hash
        return _hash_tree(self) if h is None else h

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(map(self.__getattribute__, self._fields))

    def __repr__(self):
        out = []
        stack = [self]
        while stack:
            f = stack.pop()
            if type(f) is str:
                out.append(f)
                continue
            pieces = [type(f).__qualname__ + "("]
            for name in f._fields:
                value = getattr(f, name)
                pieces += (", " if len(pieces) > 1 else "", name, "=",
                           value if isinstance(value, _Node) else repr(value))
            pieces.append(")")
            stack += reversed(pieces)
        return "".join(out)


_set_hash = _Node._hash.__set__


def _equal(a, b):
    """Structural equality of two nodes, without recursion; each pair of
    node objects is compared once, so shared subformulas cost nothing."""
    stack = [(a, b)]
    seen = set()
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is type(b) and isinstance(a, _Node):
            pair = (id(a), id(b))
            if pair in seen:
                continue
            seen.add(pair)
            stack += zip(map(a.__getattribute__, a._fields),
                         map(b.__getattribute__, b._fields))
        elif isinstance(a, _Node) or isinstance(b, _Node) or a != b:
            return False
    return True


def _hash_tree(root):
    """Cache the hash of root and of every node below it that lacks one,
    children first, and return root's.  A node hashes as the tuple of its
    fields, as a frozen dataclass would."""
    stack = [root]
    while stack:
        f = stack[-1]
        t = type(f)
        if t is Monus:
            a, b = f.left, f.right
            if getattr(a, "_hash", 0) is None or getattr(b, "_hash", 0) is None:
                stack += (b, a)
                continue
            key = (a, b)
        elif t is Neg or t is Half or t is Inf or t is Sup:
            a = f.body
            if getattr(a, "_hash", 0) is None:
                stack.append(a)
                continue
            key = (a,) if t is Neg or t is Half else (f.var, a)
        else:
            key = tuple([getattr(f, name) for name in f._fields])
        stack.pop()
        _set_hash(f, hash(key))
    return root._hash


# Atoms, Neg, Half and Monus are built by the thousand (parser, rebuild,
# proof search), so their __init__ calls the slots' own setters, which is
# cheaper than object.__setattr__.

class Const0(_Node):
    __slots__ = ()

    def __init__(self):
        _set_hash(self, None)


class Atom(_Node):
    __slots__ = _fields = __match_args__ = ("name",)

    def __init__(self, name):
        _set_atom_name(self, name)
        _set_hash(self, None)


class Neg(_Node):
    __slots__ = _fields = __match_args__ = ("body",)

    def __init__(self, body):
        _set_neg_body(self, body)
        _set_hash(self, None)


class Half(_Node):
    __slots__ = _fields = __match_args__ = ("body",)

    def __init__(self, body):
        _set_half_body(self, body)
        _set_hash(self, None)


class Monus(_Node):
    __slots__ = _fields = __match_args__ = ("left", "right")

    def __init__(self, left, right):
        _set_monus_left(self, left)
        _set_monus_right(self, right)
        _set_hash(self, None)


_set_atom_name = Atom.name.__set__
_set_neg_body = Neg.body.__set__
_set_half_body = Half.body.__set__
_set_monus_left = Monus.left.__set__
_set_monus_right = Monus.right.__set__


class Var(_Node):
    __slots__ = _fields = __match_args__ = ("name",)

    def __init__(self, name):
        _set(self, "name", name)
        _set_hash(self, None)


class Apply(_Node):
    __slots__ = _fields = __match_args__ = ("func", "args")

    def __init__(self, func, args):
        _set(self, "func", func)
        _set(self, "args", args)
        _set_hash(self, None)


class Pred(_Node):
    __slots__ = _fields = __match_args__ = ("name", "args")

    def __init__(self, name, args):
        _set(self, "name", name)
        _set(self, "args", args)
        _set_hash(self, None)


class Inf(_Node):
    __slots__ = _fields = __match_args__ = ("var", "body")

    def __init__(self, var, body):
        _set(self, "var", var)
        _set(self, "body", body)
        _set_hash(self, None)


class Sup(_Node):
    __slots__ = _fields = __match_args__ = ("var", "body")

    def __init__(self, var, body):
        _set(self, "var", var)
        _set(self, "body", body)
        _set_hash(self, None)


# --- sugar ------------------------------------------------------------------

def conj(a, b):
    """Pointwise minimum: a /\\ b expands to a - (a - b)."""
    return Monus(a, Monus(a, b))


def disj(a, b):
    """Pointwise maximum, by De Morgan from conj."""
    return Neg(conj(Neg(a), Neg(b)))


def abs_diff(a, b):
    """|a - b| = (a - b) \\/ (b - a)."""
    return disj(Monus(a, b), Monus(b, a))


def truncated_add(a, b):
    """min(1, a + b): a (+) b expands to neg (neg a - b)."""
    return Neg(Monus(Neg(a), b))


def one():
    """The constant 1 = neg (0 - 0)."""
    return Neg(Monus(Const0(), Const0()))


def dyadic(n):
    """The constant 2^-n (n halvings of 1)."""
    if n < 0:
        raise ValueError("dyadic exponent must be >= 0")
    f = one()
    for _ in range(n):
        f = Half(f)
    return f


def monus_chain(psi, n, phi):
    """psi - n*phi: subtract phi from psi n times, left-nested."""
    if n < 0:
        raise ValueError("repeat count must be >= 0")
    f = psi
    for _ in range(n):
        f = Monus(f, phi)
    return f


# --- structural helpers -------------------------------------------------------

_PROPOSITIONAL = (Const0, Atom, Neg, Half, Monus)


def subformulas(*roots):
    """The distinct subformulas of the roots, children before parents, in
    order of first occurrence; and the position in that list of every node
    object reachable from the roots, keyed by id.

    Structurally equal subformulas share one position: a node is identified
    by its type, its atom, variable or predicate name (with its printed
    argument terms) and the positions of its children, so no node is ever
    hashed or compared.  The walk keeps an explicit stack and visits each
    node object once, so formulas may nest to any depth.  The ids stay
    meaningful while the roots are alive.
    """
    order = []
    pos = {}
    index = {}
    stack = list(reversed(roots))
    while stack:
        f = stack[-1]
        if id(f) in pos:
            stack.pop()
            continue
        t = type(f)
        if t is Monus:
            left = pos.get(id(f.left))
            right = pos.get(id(f.right))
            if left is None or right is None:
                stack += (f.right, f.left)
                continue
            key = (t, left, right)
        elif t is Neg or t is Half or t is Inf or t is Sup:
            body = pos.get(id(f.body))
            if body is None:
                stack.append(f.body)
                continue
            key = (t, body) if t is Neg or t is Half else (t, f.var, body)
        elif t is Atom:
            key = (t, f.name)
        elif t is Const0:
            key = t
        elif t is Pred:
            key = (t, f.name, tuple(map(print_term, f.args)))
        else:  # not a formula node: equal only to itself
            key = (t, id(f))
        stack.pop()
        p = index.get(key)
        if p is None:
            p = index[key] = len(order)
            order.append(f)
        pos[id(f)] = p
    return order, pos


def fold(nodes, pos, algebra):
    """Interpret formulas bottom-up, once per distinct subformula.

    nodes and pos come from subformulas(*roots).  algebra maps a node type
    to a function of the node and its children's values (body, or left and
    right).  Returns the value at every position; a single root's value is
    the last.  A node whose type the algebra lacks raises TypeError.
    """
    values = []
    for f in nodes:
        t = type(f)
        visit = algebra.get(t)
        if visit is None:
            raise TypeError("%s nodes have no meaning here: %r" % (t.__name__, f))
        if t is Monus:
            values.append(visit(f, values[pos[id(f.left)]], values[pos[id(f.right)]]))
        elif t is Neg or t is Half or t is Inf or t is Sup:
            values.append(visit(f, values[pos[id(f.body)]]))
        else:
            values.append(visit(f))
    return values


_OPEN = object()  # a rebuild position whose children are still being rebuilt


def rebuild(roots, pos, swap):
    """The roots with subformulas swapped out, as a list.

    pos comes from subformulas(*roots), or from a call with more roots.
    swap(f, p) is asked once for each distinct subformula f reached, p
    being its position, outermost first and left to right; when it returns
    a formula, that replaces f and f's own subformulas are not reached.
    Every other Neg, Half and Monus is rebuilt over its rebuilt children,
    once per position; other nodes stay as they are.
    """
    done = {}
    stack = list(reversed(roots))
    while stack:
        f = stack.pop()
        p = pos[id(f)]
        got = done.get(p)
        t = type(f)
        if got is _OPEN:  # its children are rebuilt now
            if t is Monus:
                got = Monus(done[pos[id(f.left)]], done[pos[id(f.right)]])
            else:
                got = t(done[pos[id(f.body)]])
            done[p] = got
        elif got is None:
            got = swap(f, p)
            if got is not None:
                done[p] = got
            elif t is Monus or t is Neg or t is Half:
                done[p] = _OPEN
                stack += (f, f.right, f.left) if t is Monus else (f, f.body)
            else:
                done[p] = f
    return [done[pos[id(root)]] for root in roots]


def atom_names(*formulas):
    """Sorted names of the propositional atoms occurring in the formulas."""
    return sorted({f.name for f in subformulas(*formulas)[0] if type(f) is Atom})


def monus_count(*formulas):
    """Number of distinct truncated-subtraction subformulas of the formulas.

    This is the branching measure for the decision procedures: each distinct
    Monus node contributes at most one zero/positive split.
    """
    return sum(type(f) is Monus for f in subformulas(*formulas)[0])


def is_propositional(*formulas):
    return all(type(f) in _PROPOSITIONAL for f in subformulas(*formulas)[0])


def substitute(formula, mapping):
    """The propositional formula with each named atom replaced by a formula.

    Atoms not in the mapping stay; replacement is simultaneous (replacements
    are not rewritten again).
    """

    def swap(f, p):
        if type(f) is Atom:
            return mapping.get(f.name, f)
        if type(f) not in _PROPOSITIONAL:
            raise TypeError("not a propositional formula: %r" % (f,))
        return None

    return rebuild([formula], subformulas(formula)[1], swap)[0]


def term_variables(*terms):
    """The variables occurring in the terms."""
    return frozenset().union(*(
        [t.name] if type(t) is Var else term_variables(*t.args) for t in terms
    ))


_FREE_VARIABLES = {
    Const0: lambda f: frozenset(),
    Atom: lambda f: frozenset(),
    Pred: lambda f: term_variables(*f.args),
    Neg: lambda f, body: body,
    Half: lambda f, body: body,
    Monus: lambda f, left, right: left | right,
    Inf: lambda f, body: body - {f.var},
    Sup: lambda f, body: body - {f.var},
}


def free_variables_at(nodes, pos):
    """The free term variables (a frozenset) at every position of
    subformulas(...); a node that is no formula raises TypeError."""
    return fold(nodes, pos, _FREE_VARIABLES)


# --- signatures ----------------------------------------------------------------

class Signature:
    """Function and predicate symbols with per-argument Lipschitz constants.

    The binary metric symbol `d` is always present (Lipschitz constant 1 in
    each slot) and may not be redeclared.  A symbol's modulus of continuity in
    slot i is delta(eps) = eps / lambda_i.
    """

    def __init__(self, functions=None, predicates=None):
        self.functions = {}
        self.predicates = {}
        for table, decls in ((self.functions, functions), (self.predicates, predicates)):
            for name, lips in (decls or {}).items():
                if name == METRIC_SYMBOL:
                    raise ValueError("symbol name %r is reserved for the metric" % name)
                if name in KEYWORDS or not _is_identifier(name):
                    raise ValueError("bad symbol name %r" % name)
                if name in self.functions or name in self.predicates:
                    raise ValueError("duplicate symbol %r" % name)
                lam = [rat(x) for x in lips]
                if any(l < 0 for l in lam):
                    raise ValueError("Lipschitz constants must be >= 0 (%s)" % name)
                table[name] = lam

    def __eq__(self, other):
        return (
            isinstance(other, Signature)
            and self.functions == other.functions
            and self.predicates == other.predicates
        )

    def validate_subformulas(self, nodes):
        """Check arities and that every symbol is declared, given a
        formula's subformulas(...) nodes; raise ValueError."""
        for f in nodes:
            if type(f) is Pred:
                if f.name == METRIC_SYMBOL:
                    if len(f.args) != 2:
                        raise ValueError("metric %r takes 2 arguments" % f.name)
                elif f.name not in self.predicates:
                    raise ValueError("undeclared predicate %r" % f.name)
                elif len(f.args) != len(self.predicates[f.name]):
                    raise ValueError("arity mismatch for predicate %r" % f.name)
                for t in f.args:
                    self._validate_term(t)

    def _validate_term(self, t):
        if isinstance(t, Var):
            return
        if t.func not in self.functions:
            raise ValueError("undeclared function %r" % t.func)
        if len(t.args) != len(self.functions[t.func]):
            raise ValueError("arity mismatch for function %r" % t.func)
        for a in t.args:
            self._validate_term(a)


def _is_name(word):
    return word[:1].isalpha() or word[:1] == "_"


def _is_identifier(s):
    return _is_name(s) and all(c.isalnum() or c == "_" for c in s)


# --- tokenizer ----------------------------------------------------------------

_SYMBOLS = frozenset(["(", ")", "|", "-", "/\\", "\\/", "(+)", "0", "1", ".", ","])
# Whitespace, then one token: a symbol ('(+)' before '('), '2^-' and its
# digits, a word, or any other character, which is an error.  \w also
# matches digits such as '²', so a word is a name only if _is_name says so.
# Where a token starts is found again only for an error (_Parser.fail).
_TOKEN = re.compile(r"\s*(\(\+\)|[()|\-.,01]|/\\|\\/|2\^-[0-9]*|\w+|\S)")


def _tokenize(text):
    """The token strings, then two empty strings for the end of the text:
    an operator read at the end is followed by one more read, of its right
    operand, which fails."""
    return _TOKEN.findall(text) + ["", ""]


def _token_error(tok):
    """(message, offset from the token's start) if the token is an error
    on its own, else None."""
    if tok[:3] == "2^-":
        if len(tok) == 3:
            return "expected digits after '2^-'", 3
        exponent = tok[3:].lstrip("0") or "0"
        if len(exponent) > 5 or int(exponent) > MAX_DYADIC_EXPONENT:
            return "exponent of '2^-' above %d" % MAX_DYADIC_EXPONENT, 3
    elif tok not in _SYMBOLS and not _is_name(tok):
        return "unexpected character %r" % tok[0], 0
    return None


_OPENERS = {"neg": Neg, "half": Half, "(": "(", "|": "|"}


class _Parser:
    """Reads a formula off the token strings by index."""

    def __init__(self, text, first_order):
        self.text = text
        self.toks = _tokenize(text)
        self.first_order = first_order
        self.variables = {}  # name -> the one Var node of that name here

    def fail(self, message, k):
        """Raise the ParseError of token k, unless a token is an error on
        its own: then that of the first such, as a tokenizer would meet it."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)]
        for j, tok in enumerate(self.toks[:len(starts)]):
            error = _token_error(tok)
            if error is not None:
                raise ParseError(error[0], starts[j] + error[1])
        raise ParseError(message, starts[k] if k < len(starts) else len(self.text))

    def parse(self):
        """The formula the tokens spell.  What still waits for a subformula
        (a prefix connective or quantifier, an open bracket or bar, or an
        operator whose left operand is read) sits on an explicit stack, so
        nesting depth is unbounded."""
        toks = self.toks
        i = 0
        waiting = []
        while True:
            tok = toks[i]
            i += 1
            opener = _OPENERS.get(tok)
            if opener is not None:
                waiting.append(opener)
                continue
            if tok == "0":
                node = Const0()
            elif tok == "1":
                node = one()
            elif tok == "inf" or tok == "sup":
                if not self.first_order:
                    self.fail("quantifier %r not allowed here" % tok, i - 1)
                var = toks[i]
                if not _is_name(var):
                    self.fail("expected a variable name", i)
                if var in KEYWORDS:
                    self.fail("reserved word %r cannot be a variable" % var, i)
                if toks[i + 1] != ".":
                    self.fail("expected '.'", i + 1)
                i += 2
                q = Inf if tok == "inf" else Sup
                waiting.append(lambda body, q=q, var=sys.intern(var): q(var, body))
                continue
            elif _is_name(tok):
                # names repeat across formulas: one string object each
                if self.first_order:
                    if toks[i] != "(":
                        self.fail("expected '(' (predicates take arguments here)", i)
                    args, i = self.termlist(i + 1)
                    node = Pred(sys.intern(tok), tuple(args))
                else:
                    node = Atom(sys.intern(tok))
            elif tok[:3] == "2^-" and _token_error(tok) is None:
                node = dyadic(int(tok[3:].lstrip("0") or "0"))
            else:
                self.fail("expected a formula", i - 1)
            while waiting:  # close what this node completes
                w = waiting.pop()
                if type(w) is tuple:  # (left operand, operator index or None: bars)
                    left, k = w
                    if k is None:
                        if toks[i] != "|":
                            self.fail("expected closing '|'", i)
                        node = abs_diff(left, node)
                    else:
                        if toks[i] != ")":
                            self.fail("expected ')'", i)
                        build = _BINARY.get(toks[k])
                        if build is None:
                            self.fail("expected a binary operator", k)
                        node = build(left, node)
                    i += 1
                elif w == "(":
                    waiting.append((node, i))
                    i += 1
                    break
                elif w == "|":
                    if toks[i] != "-":
                        self.fail("expected '-'", i)
                    waiting.append((node, None))
                    i += 1
                    break
                else:
                    node = w(node)
            else:
                if toks[i]:
                    self.fail("trailing input", i)
                return node

    def termlist(self, i):
        """Arguments from token i on, up to and including the closing
        paren, and the index after them."""
        args = []
        if self.toks[i] == ")":
            return args, i + 1
        while True:
            term, i = self.term(i)
            args.append(term)
            if self.toks[i] == ")":
                return args, i + 1
            if self.toks[i] != ",":
                self.fail("expected ',' or ')'", i)
            i += 1

    def term(self, i):
        name = self.toks[i]
        if not _is_name(name):
            self.fail("expected a term", i)
        if name in KEYWORDS:
            self.fail("reserved word %r cannot start a term" % name, i)
        name = sys.intern(name)
        if self.toks[i + 1] == "(":
            args, i = self.termlist(i + 2)
            return Apply(name, tuple(args)), i
        var = self.variables.get(name)
        if var is None:
            var = self.variables[name] = Var(name)
        return var, i + 1


_BINARY = {"-": Monus, "/\\": conj, "\\/": disj, "(+)": truncated_add}


def parse_formula(text):
    """Parse a propositional formula (atoms are bare identifiers)."""
    return _Parser(text, first_order=False).parse()


def parse_lformula(text):
    """Parse a first-order formula (identifiers must be applied predicates)."""
    return _Parser(text, first_order=True).parse()


# --- printer --------------------------------------------------------------------

def print_formula(formula):
    """Canonical fully parenthesized core form; inverse of the parser.

    The text is as large as the formula's tree, so it is written out piece
    by piece from an explicit stack of nodes and pending text rather than
    assembled per distinct subformula.
    """
    out = []
    stack = [formula]
    while stack:
        f = stack.pop()
        t = type(f)
        if t is str:
            out.append(f)
        elif t is Monus:
            stack += (")", f.right, " - ", f.left, "(")
        elif t is Neg or t is Half:
            stack += (f.body, "neg " if t is Neg else "half ")
        elif t is Inf or t is Sup:
            stack += (f.body, "%s %s. " % ("inf" if t is Inf else "sup", f.var))
        elif t is Atom:
            out.append(f.name)
        elif t is Const0:
            out.append("0")
        elif t is Pred:
            out.append("%s(%s)" % (f.name, ", ".join(map(print_term, f.args))))
        else:
            raise TypeError("not a formula: %r" % (f,))
    return "".join(out)


def print_term(t):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Apply):
        return "%s(%s)" % (t.func, ", ".join(print_term(a) for a in t.args))
    raise TypeError("not a term: %r" % (t,))
