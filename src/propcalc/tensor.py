"""Exact-rational tensor semantics for labeled graphs.

A dimension-d assignment sends each generator to a matrix acting on
tensor powers of a d-dimensional space; `evaluate` contracts a labeled
graph as a tensor network, vertex by vertex, with zero tolerance.  The
wiring is compiled once into a plan that depends on neither d nor the
matrices: the vertex order, then per vertex the axis permutations of
the state and of the vertex's tensor that put the contracted wires side
by side, then the through wires, the final transpose and the peak live
axes.  An element keeps its default-order plan and reuses it under
every assignment; executing a plan is, per vertex, an optional
transpose and one `np.dot` of two reshaped operands.  The plan's peak,
d ** peak_axes entries, is held to a named cap (`max_entries`) before
anything is allocated.  A tensor
is held as integer numerators over one common denominator, so the
contraction runs on integers and divides once per result.  Numerators
are numpy int64 while every entry fits, and each product runs in int64
only while a bound on its largest partial sum stays below 2**63.  Every
tensor carries a bound on its entries, made from its operands' bounds
with no pass over the entries; only when a product's bound trips are
the int64 operands' true maxima read, and if they trip it too, both
operands become object arrays of Python ints, the one exact route at
any size.  A result whose denominator is 1 skips the gcd, and a known
normal form (a Kronecker power, a permutation of outputs, the identity)
is wrapped as it is.  `fractions.Fraction` appears only where values
are read, written or shown.  `TensorOps` exposes the same target through
the layer-slicing evaluator, giving a second, independent route to every
value.  On top sits the intertwiner check of one matrix between two
assignments.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .freeprop import PropElement, Signature
from .graphs import (FormatError, Graph, GraphError, LimitError, _quote,
                     check_permutation, check_topological_order, is_int,
                     port_map, topological_order)

DEFAULT_MAX_DIM = 4
DEFAULT_MAX_AXES = 6
DEFAULT_MAX_ENTRIES = 2 ** 22


# the decimal exponent of a rational's text, as `Fraction` reads it
_EXPONENT = re.compile(r"e[-+]?0*(\d[\d_]*)\s*\Z", re.IGNORECASE)
# a digit string of that text, which `Fraction` reads by `int`
_DIGITS = re.compile(r"\d[\d_]*")


def parse_rational(text: object) -> Fraction:
    """Read "p/q", "p" or a decimal such as "-1.5e3" (strings or ints) into
    an exact rational.  A decimal exponent past the interpreter's
    int-string digit limit is refused, since `Fraction` would build
    10**exponent, and so is a digit string longer than that limit, which
    `int` refuses.  The message quotes at most the head of the text."""
    if isinstance(text, Fraction):
        return text
    if is_int(text):
        return Fraction(text)
    if isinstance(text, str):
        limit = sys.get_int_max_str_digits() \
            or sys.int_info.default_max_str_digits
        exp = _EXPONENT.search(text)
        if exp is not None:
            digits = exp.group(1).replace("_", "")
            if len(digits) > len(str(limit)) or int(digits) > limit:
                raise FormatError(f"bad rational {_quote(text)}: exponent "
                                  f"past the {limit}-digit limit")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            reason = "zero denominator"
        except ValueError:
            # `Fraction`'s own messages repeat the text in full
            reason = "not p/q, an integer or a decimal"
            if any(len(run.replace("_", "")) > limit
                   for run in _DIGITS.findall(text)):
                reason = f"a digit string past the {limit}-digit limit"
        raise FormatError(f"bad rational {_quote(text)}: {reason}")
    raise FormatError(f"bad rational {_quote(text)}")


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 \
        else f"{x.numerator}/{x.denominator}"


def _entry(x: object) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if is_int(x) or isinstance(x, str):
        return parse_rational(x)
    raise GraphError(f"entry {_quote(x)} is not an exact rational")


# numpy's int64 arithmetic wraps silently at this magnitude
_INT64_LIMIT = 2 ** 63


def _true_top(num: np.ndarray) -> int:
    """max |num| of an int64 array, read from the entries."""
    return int(np.abs(num).max()) if num.size else 0


def _normal(num: np.ndarray, den: int,
            bound: int | None = None) -> tuple[np.ndarray, int, int]:
    """(num, den, top) in lowest terms, top >= max |num|, with num int64
    iff max |num| < 2**63 (else an object array of Python ints).  An
    int64 num takes `bound`, a known bound on max |num|, as its top
    (read from the entries when None); an object num gets its exact
    maximum."""
    if num.dtype == object:
        top = max(map(abs, num.flat), default=0)
        g = math.gcd(den, *num.flat)
        if g != 1:
            num, den, top = num // g, den // g, top // g
        if top < _INT64_LIMIT:
            num = num.astype(np.int64)
        return num, den, top
    top = _true_top(num) if bound is None else bound
    if den == 1:
        return num, 1, top
    # g <= max |num|, so it fits in int64; a zero num reduces to 0
    g = int(np.gcd.reduce(num, None))
    if g == 0:
        return num, 1, 0
    g = math.gcd(den, g)
    if g != 1:
        num, den, top = num // g, den // g, top // g
    return num, den, top


def _operands(a: np.ndarray, top_a: int, b: np.ndarray, top_b: int,
              terms: int) -> tuple[np.ndarray, np.ndarray, int]:
    """a and b ready to multiply exactly into sums of `terms` products,
    with a bound on every such sum: as they are while the bound
    top_a * top_b * terms stays below 2**63, else both as object arrays
    of Python ints.  A carried top can grow past every entry (a deep
    chain of signed permutations), so before leaving int64 the tops of
    the int64 operands are read from their entries."""
    bound = top_a * top_b * terms
    if bound < _INT64_LIMIT:
        return a, b, bound
    if a.dtype != object:
        top_a = _true_top(a)
    if b.dtype != object:
        top_b = _true_top(b)
    bound = top_a * top_b * terms
    if bound < _INT64_LIMIT:
        return a, b, bound
    return a.astype(object, copy=False), b.astype(object, copy=False), bound


class RatTensor:
    """An immutable dense tensor of exact rationals: integer numerators
    over one positive int denominator, always in lowest terms
    (gcd(den, *num) == 1, so a zero tensor has den == 1).  The numerators
    are an int64 array when their largest magnitude is below 2**63 and an
    object array of Python ints otherwise, so the dtype follows from the
    value.  That normal form makes equality and hashing exact on
    (shape, den, num).  `_top` is an upper bound on the largest
    magnitude, carried from the operands of the product that made the
    tensor, so small products never read their entries to size the
    next one."""

    __slots__ = ("_num", "_den", "_top")

    def __init__(self, array):
        src = np.asarray(array, dtype=object)
        entries = [_entry(x) for x in src.flat]
        den = math.lcm(*(x.denominator for x in entries))
        num = np.empty(src.shape, dtype=object)
        num.reshape(-1)[:] = [x.numerator * (den // x.denominator)
                              for x in entries]
        num, self._den, self._top = _normal(num, den)
        num.setflags(write=False)
        self._num = num

    @classmethod
    def _of(cls, num: np.ndarray, den: int,
            bound: int | None = None) -> "RatTensor":
        """Wrap int numerators (int64 or object) over a positive den,
        reducing once and choosing the dtype; `bound`, when known, bounds
        max |num| of an int64 num."""
        return cls._wrap(*_normal(num, den, bound))

    @classmethod
    def _wrap(cls, num: np.ndarray, den: int, top: int) -> "RatTensor":
        """Wrap numerators already in normal form, as they are."""
        num.setflags(write=False)
        t = cls.__new__(cls)
        t._num, t._den, t._top = num, den, top
        return t

    @property
    def array(self) -> np.ndarray:
        """A fresh read-only object array of `Fraction` entries."""
        a = np.empty(self._num.shape, dtype=object)
        a.reshape(-1)[:] = [Fraction(x, self._den)
                            for x in self._num.ravel().tolist()]
        a.setflags(write=False)
        return a

    @property
    def shape(self) -> tuple[int, ...]:
        return self._num.shape

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> "RatTensor":
        return cls._wrap(np.zeros(shape, dtype=np.int64), 1, 0)

    @classmethod
    def identity(cls, n: int) -> "RatTensor":
        return cls._wrap(np.identity(n, dtype=np.int64), 1, 1)

    def rows(self) -> list[list[str]]:
        if self._num.ndim != 2:
            raise GraphError("rows() needs a matrix")
        return [[format_rational(x) for x in row] for row in self.array]

    def __eq__(self, other) -> bool:
        return isinstance(other, RatTensor) and self.shape == other.shape \
            and self._den == other._den \
            and bool((self._num == other._num).all())

    def __hash__(self) -> int:
        return hash((self.shape, self._den,
                     tuple(self._num.ravel().tolist())))

    def __repr__(self) -> str:
        return f"RatTensor{self.shape}"


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.multiply.outer(a, b)
    return out.transpose(0, 2, 1, 3).reshape(ra * rb, ca * cb)


def rt_dot(a: RatTensor, b: RatTensor) -> RatTensor:
    if a.shape[-1] != b.shape[0]:
        raise GraphError(f"cannot multiply {a.shape} by {b.shape}")
    x, y, bound = _operands(a._num, a._top, b._num, b._top, a.shape[-1])
    return RatTensor._of(np.dot(x, y), a._den * b._den, bound)


def rt_kron(a: RatTensor, b: RatTensor) -> RatTensor:
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise GraphError("kron needs matrices")
    x, y, bound = _operands(a._num, a._top, b._num, b._top, 1)
    return RatTensor._of(_kron(x, y), a._den * b._den, bound)


def kron_power(a: RatTensor, k: int) -> RatTensor:
    """a^(x)k, built in normal form: gcd(num^(x)k) = gcd(num)^k is coprime
    to den^k, and the largest entry is the largest of a to the k-th, so
    the dtype chosen along the way is the one the value needs."""
    if k < 0:
        raise GraphError("negative tensor power")
    if len(a.shape) != 2:
        raise GraphError("kron needs matrices")
    if k == 0:
        return RatTensor.identity(1)
    if k == 1:
        return a
    num, top, factor = a._num, a._top, a._num
    for _ in range(k - 1):
        num, factor, top = _operands(num, top, factor, a._top, 1)
        num = _kron(num, factor)
    return RatTensor._wrap(num, a._den ** k, top)


def rt_inverse(a: RatTensor) -> RatTensor:
    """Exact inverse by fraction-free Gauss-Jordan elimination on the
    numerators (Bareiss, Math. Comp. 22, 1968): every division by the
    previous pivot is exact, and [N | I] ends as [c I | c N^-1] with
    c = +-det N, so (N/den)^-1 = den * (c N^-1) / c."""
    if len(a.shape) != 2 or a.shape[0] != a.shape[1]:
        raise GraphError("inverse needs a square matrix")
    n = a.shape[0]
    work = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(a._num.tolist())]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise GraphError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        top = work[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row, f = work[r], work[r][col]
                work[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    out = np.empty((n, n), dtype=object)
    out.reshape(-1)[:] = [a._den * x for row in work for x in row[n:]]
    if prev < 0:
        out, prev = -out, -prev
    return RatTensor._of(out, prev)


# ---------------------------------------------------------------------------
# assignments

@dataclass(frozen=True)
class AlgebraAssignment:
    """A dimension together with one matrix per generator name, the matrix
    for a generator with m inputs and n outputs being d^n x d^m (outputs
    index rows)."""

    dim: int
    matrices: dict[str, RatTensor]
    sig: Signature | None = None

    @classmethod
    def build(cls, dim: int, matrices: dict[str, RatTensor],
              sig: Signature | None = None,
              max_dim: int | None = None) -> "AlgebraAssignment":
        cap = DEFAULT_MAX_DIM if max_dim is None else max_dim
        if not is_int(dim) or dim < 1:
            raise GraphError("dimension must be a positive integer")
        if dim > cap:
            raise LimitError(
                f"dimension {dim}, cap is {cap} (max_dim, --max-dim)")
        for name, t in matrices.items():
            if not isinstance(t, RatTensor) or len(t.shape) != 2:
                raise GraphError(
                    f"assignment for {_quote(name)} must be a matrix")
        if sig is not None:
            for g in sig:
                t = matrices.get(g.name)
                if t is None:
                    raise GraphError(
                        f"no matrix for generator {_quote(g.name)}")
                want = (dim ** g.n, dim ** g.m)
                if t.shape != want:
                    raise GraphError(
                        f"matrix for {_quote(g.name)} has shape {t.shape}, "
                        f"wanted {want}")
        return cls(dim, dict(matrices), sig)

    def arity(self, name: str) -> tuple[int, int]:
        if self.sig is not None:
            return self.sig.arity(name)
        t = self.matrices.get(name)
        if t is None:
            raise GraphError(f"unknown generator {_quote(name)}")
        if self.dim == 1:
            raise GraphError(
                "dimension 1 cannot determine arities; give a signature")
        rows, cols = t.shape

        def log_of(size: int) -> int:
            k = 0
            while self.dim ** k < size:
                k += 1
            if self.dim ** k != size:
                raise GraphError(
                    f"matrix size {size} is not a power of {self.dim}")
            return k

        return (log_of(cols), log_of(rows))


def algebra_to_dict(a: AlgebraAssignment) -> dict:
    return {"dim": a.dim,
            "matrices": {name: t.rows()
                         for name, t in sorted(a.matrices.items())}}


def algebra_from_dict(d: object, sig: Signature | None = None,
                      max_dim: int | None = None) -> AlgebraAssignment:
    if not isinstance(d, dict) or not is_int(d.get("dim")) \
            or not isinstance(d.get("matrices"), dict):
        raise FormatError(
            "assignment JSON must be {\"dim\": d, \"matrices\": {...}}")
    matrices: dict[str, RatTensor] = {}
    for name, rows in d["matrices"].items():
        try:
            matrices[name] = matrix_from_json(rows)
        except FormatError as err:
            raise FormatError(f"matrix for {_quote(name)}: {err}") from None
    try:
        return AlgebraAssignment.build(d["dim"], matrices, sig, max_dim)
    except GraphError as err:
        raise FormatError(str(err)) from None


def matrix_from_json(data: object) -> RatTensor:
    if not isinstance(data, list) or not data \
            or not all(isinstance(r, list) and len(r) == len(data[0]) and r
                       for r in data):
        raise FormatError("matrix JSON must be a rectangular array")
    return RatTensor([[parse_rational(x) for x in r] for r in data])


# ---------------------------------------------------------------------------
# evaluation by direct network contraction

class _Plan(NamedTuple):
    """How to contract one labeled graph in one vertex order, with nothing
    that depends on the dimension or the matrices.  Each step is
    (vid, label, n_out, n_in, sperm, tperm, kept, contracted, tkept): the
    vertex's matrix, viewed as a tensor with its out-axes first, is
    multiplied into the state over `contracted` axis pairs as one matrix
    product.  `sperm` moves the state's `kept` axes, in order, before the
    contracted ones; `tperm` moves the tensor's contracted in-port axes,
    in the same pairing order, before its `tkept` other axes; either is
    None where it is the identity.  The product's axes are the kept state
    axes, then the tensor's.  Then `through` input-to-output wires each
    add an identity factor, `perm` puts the outputs then the inputs in
    boundary order, and `peak_axes` is the most axes the state ever
    holds."""

    steps: tuple[tuple, ...]
    through: int
    perm: tuple[int, ...]
    peak_axes: int


def _unless_identity(perm: list[int]) -> tuple[int, ...] | None:
    return None if perm == list(range(len(perm))) else tuple(perm)


def _compile(graph: Graph, labels: dict[int, str], order: list[int]) -> _Plan:
    """The plan for contracting `graph` vertex by vertex in `order`, which
    must be a topological order."""
    boundary, ins, outs = port_map(graph)
    # Each open axis of the state is named by the port that will consume
    # it: a vertex in-port ("vin", v, k) until v is contracted, or a
    # boundary port, ("output", j) or ("input", i), which `perm` reads.
    axes: list[tuple] = []
    steps, peak = [], 0
    for vid in order:
        n_out, n_in = len(outs[vid]), len(ins[vid])
        spos, tpos, opened = [], [], []
        for k, src in enumerate(ins[vid], start=1):
            if src[0] == "vout":
                spos.append(axes.index(("vin", vid, k)))
                tpos.append(n_out + k - 1)
            else:
                opened.append(src)
        taken = set(spos)
        kept = [i for i in range(len(axes)) if i not in taken]
        tkept = [i for i in range(n_out + n_in) if i not in tpos]
        steps.append((vid, labels[vid], n_out, n_in,
                      _unless_identity(kept + spos),
                      _unless_identity(tpos + tkept),
                      len(kept), len(spos), len(tkept)))
        axes = [axes[i] for i in kept]
        axes += outs[vid]
        axes += opened
        if len(axes) > peak:
            peak = len(axes)
    through = 0
    for i, dst in enumerate(boundary[:graph.m], start=1):
        if dst[0] == "output":
            through += 1
            axes += [dst, ("input", i)]
    perm = [axes.index(("output", j)) for j in range(1, graph.n + 1)]
    perm += [axes.index(("input", i)) for i in range(1, graph.m + 1)]
    return _Plan(tuple(steps), through, tuple(perm), max(peak, len(axes)))


def _default_plan(e: PropElement) -> _Plan:
    """The element's plan in its default topological order, compiled on
    first use and kept in the element's instance dict (as `key_text` is),
    so it lives as long as the element and stays out of its equality,
    hash, repr and serialization."""
    memo = vars(e)
    plan = memo.get("_plan")
    if plan is None:
        plan = memo["_plan"] = _compile(e.graph, e.labels,
                                        topological_order(e.graph))
    return plan


def evaluate(e: PropElement, A: AlgebraAssignment,
             order: list[int] | None = None,
             max_axes: int | None = None,
             max_entries: int | None = None) -> RatTensor:
    """Contract the element's labeled graph against the assignment.

    Vertices are consumed in a topological order (any such order gives
    the same tensor; by default ties go to the smaller vertex id, which
    in a canonical element is the canonical order); each internal wire
    is summed over 1..d, and the result is returned as a d^n x d^m
    matrix with output multi-indices on rows, earlier boundary index
    most significant.

    The wiring is compiled into a plan that depends on neither d nor
    the matrices; the default order's plan is kept on the element, so
    it serves every assignment and dimension, while an explicit `order`
    is checked and planned on each call.  Every call still checks each
    vertex's matrix.  Before the first product, the plan's widest state,
    d ** peak_axes entries, is held to `max_entries`.
    """
    graph = e.graph
    cap = DEFAULT_MAX_AXES if max_axes is None else max_axes
    if graph.m + graph.n > cap:
        raise LimitError(
            f"boundary {graph.m}+{graph.n} axes, cap is {cap}"
            " (max_axes, --max-axes)")
    d, matrices = A.dim, A.matrices
    plan = _default_plan(e)
    # a canonical element's default order is its vertex order, so this
    # names the same first bad vertex whatever `order` is
    for vid, name, n_out, n_in, *_ in plan.steps:
        t = matrices.get(name)
        if t is None:
            raise GraphError(f"no matrix assigned to {_quote(name)}")
        if t.shape != (d ** n_out, d ** n_in):
            raise GraphError(
                f"matrix for {_quote(name)} has shape {t.shape}, vertex {vid} "
                f"needs {(d ** n_out, d ** n_in)}")
    if order is not None:
        order = list(order)
        check_topological_order(graph, order)
        plan = _compile(graph, e.labels, order)
    cap = DEFAULT_MAX_ENTRIES if max_entries is None else max_entries
    if d ** plan.peak_axes > cap:
        raise LimitError(
            f"contraction peaks at {d}**{plan.peak_axes} entries, "
            f"cap is {cap} (max_entries, --max-entries)")

    # `top` bounds |entry| of `state`; it is carried along the products so
    # that `_operands` reads the entries only when the bound trips.
    state, den, top = np.array(1, dtype=np.int64), 1, 1
    for (_, name, n_out, n_in, sperm, tperm, kept, contracted,
         tkept) in plan.steps:
        mat = matrices[name]
        t = mat._num
        if tperm is not None:
            t = t.reshape((d,) * (n_out + n_in)).transpose(tperm)
        den *= mat._den
        terms = d ** contracted
        state, t, top = _operands(state, top, t, mat._top, terms)
        if sperm is not None:
            state = state.transpose(sperm)
        state = np.dot(state.reshape(d ** kept, terms),
                       t.reshape(terms, d ** tkept))
        state = state.reshape((d,) * (kept + tkept))

    if plan.through:
        # a 0/1 factor keeps every entry's size (numpy promotes it to
        # object beside an object state)
        eye = np.identity(d, dtype=np.int64)
        for _ in range(plan.through):
            state = np.multiply.outer(state, eye)
    if plan.perm:
        state = state.transpose(plan.perm)
    return RatTensor._of(state.reshape(d ** graph.n, d ** graph.m), den, top)


# ---------------------------------------------------------------------------
# the same target through the layer-slicing evaluator

@dataclass(frozen=True)
class TElem:
    """A boundary arity plus the matrix realizing it."""

    m: int
    n: int
    tensor: RatTensor


class TensorOps:
    """Matrix semantics as a PropOps target: side-by-side placement is a
    Kronecker product, grafting is a matrix product, and output
    permutations move row axes."""

    def __init__(self, dim: int):
        if dim < 1:
            raise GraphError("dimension must be positive")
        self.dim = dim

    def identity(self, n: int) -> TElem:
        return TElem(n, n, RatTensor.identity(self.dim ** n))

    def hcompose(self, a: TElem, b: TElem) -> TElem:
        return TElem(a.m + b.m, a.n + b.n, rt_kron(a.tensor, b.tensor))

    def vcompose(self, top: TElem, bottom: TElem) -> TElem:
        if top.n != bottom.m:
            raise GraphError(f"cannot graft ({top.m},{top.n}) onto "
                             f"({bottom.m},{bottom.n})")
        return TElem(top.m, bottom.n, rt_dot(bottom.tensor, top.tensor))

    def permute_outputs(self, a: TElem, w: tuple[int, ...]) -> TElem:
        check_permutation(w, a.n)
        d = self.dim
        arr = a.tensor._num.reshape((d,) * a.n + (d ** a.m,))
        arr = np.moveaxis(arr, range(a.n), [x - 1 for x in w])
        # moving entries keeps the normal form, the den and the bound
        return TElem(a.m, a.n, RatTensor._wrap(
            arr.reshape(d ** a.n, d ** a.m), a.tensor._den, a.tensor._top))

    def arity(self, a: TElem) -> tuple[int, int]:
        return (a.m, a.n)

    def of_assignment(self, A: AlgebraAssignment,
                      sig: Signature) -> dict[str, TElem]:
        out = {}
        for g in sig:
            t = A.matrices.get(g.name)
            if t is None:
                raise GraphError(f"no matrix for generator {_quote(g.name)}")
            out[g.name] = TElem(g.m, g.n, t)
        return out


# ---------------------------------------------------------------------------
# intertwiner checks

def morphism_prop_membership(f: RatTensor, phiA: AlgebraAssignment,
                             phiB: AlgebraAssignment, name: str) -> bool:
    """Whether f intertwines the two assignments on this generator:
    f applied after phiA equals phiB applied after f, power by power."""
    m, n = phiA.arity(name)
    if phiB.arity(name) != (m, n):
        raise GraphError(
            f"assignments disagree on the arity of {_quote(name)}")
    if f.shape != (phiB.dim, phiA.dim):
        raise GraphError(
            f"f has shape {f.shape}, wanted {(phiB.dim, phiA.dim)}")
    left = rt_dot(kron_power(f, n), phiA.matrices[name])
    right = rt_dot(phiB.matrices[name], kron_power(f, m))
    return left == right


def conjugate_assignment(phiB: AlgebraAssignment,
                         f: RatTensor) -> AlgebraAssignment:
    """Transport phiB backward along an invertible f, so that f becomes an
    intertwiner by construction."""
    if f.shape != (phiB.dim, phiB.dim):
        raise GraphError("transport needs a square f matching the dimension")
    f_inv = rt_inverse(f)
    matrices = {}
    for name in phiB.matrices:
        m, n = phiB.arity(name)
        matrices[name] = rt_dot(kron_power(f_inv, n),
                                rt_dot(phiB.matrices[name],
                                       kron_power(f, m)))
    return AlgebraAssignment.build(phiB.dim, matrices, phiB.sig)

