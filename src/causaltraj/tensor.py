"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Tensors are dense row-major float arrays (float32 by default, float64 where a
computation asks for it). Every differentiable operation gives its result a
small graph node: the backward closure, the result's dtype, and one link per
parent (the parent's node, the parent itself if it is a leaf, or ``None`` if
it needs no gradient). A node never holds its output or whole parent tensors,
and each closure keeps only the arrays and shapes its backward reads, so an
intermediate result that no backward reads is freed with its ``Tensor``
during the forward pass. ``gelu``, for one, keeps its slope rather than its
input, and ``silu`` only its input. A recorded result may carry a recipe that
rebuilds its array (see ``Tensor._result``); a backward that reads such a
result keeps the recipe rather than the array (``_keep``).

``Tensor.backward`` walks the recorded graph once in reverse topological order
and accumulates gradients into the ``.grad`` of the leaves (parameters and
inputs built with ``requires_grad=True``). Interior results never keep a
gradient. The walk releases each node's closure and parent links as it goes,
so a recorded graph is single-use: run the forward pass again before the next
``backward()``.

Broadcasting is deliberately restricted: binary operations accept equal
shapes, a Python scalar, or an operand whose shape is a trailing suffix of the
other's (leading-dimension batching, e.g. a bias added to ``[..., d]``).
Anything richer must go through an explicit ``broadcast_to``.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GradCheckError, GraphReleasedError, ShapeError

DEFAULT_DTYPE = np.float32
NORM_EPS = 1e-5     # added to the variance (mean square) in layer_norm and rms_norm

_grad_enabled = True
_RELEASED = object()  # ``backward`` of a node whose closure a backward() walk already ran


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _records(t: "Tensor") -> bool:
    """Whether an op applied to ``t`` now records a node that needs ``t``'s gradient."""
    return _grad_enabled and t.requires_grad


class _Node:
    """The graph record of one op result: its backward closure, dtype and parent links.

    ``parents`` has one entry per op operand: the operand's node, the operand
    itself if it is a leaf, or ``None`` if it needs no gradient.
    """

    __slots__ = ("backward", "dtype", "parents")

    def __init__(self, backward, dtype, parents):
        self.backward = backward
        self.dtype = dtype
        self.parents = parents


class _Rebuild:
    """A recorded result's recipe for its own array, shared by the ops that keep it.

    ``build`` maps the arrays behind ``sources`` to the result's array; a source
    is an array or another recipe, so a recipe can read a result that is itself
    rebuilt (a slice of a ``linear`` output). An op that keeps the recipe in
    place of the array calls ``keep()`` when it records and ``take()`` once in
    its backward. The first ``take`` builds the array and the last one drops it,
    so the readers of one result (the q, k and v projections of one norm output)
    rebuild it once between them. A recipe keeps its source recipes from its own
    first ``keep`` on and takes each once, when it builds.
    """

    __slots__ = ("build", "sources", "readers", "array")

    def __init__(self, build: Callable[..., np.ndarray], *sources: "np.ndarray | _Rebuild"):
        self.build = build
        self.sources = sources
        self.readers = 0
        self.array: np.ndarray | None = None

    def keep(self) -> "_Rebuild":
        if self.readers == 0:
            for s in self.sources:
                if type(s) is _Rebuild:
                    s.keep()
        self.readers += 1
        return self

    def take(self) -> np.ndarray:
        y = self.build(*map(_take, self.sources)) if self.array is None else self.array
        self.readers -= 1
        self.array = y if self.readers > 0 else None
        return y


def _keep(t: Tensor) -> np.ndarray | _Rebuild:
    """What a backward keeps to read ``t``'s array: its recipe if it has one, else the array."""
    return t.data if t._rebuild is None else t._rebuild.keep()


def _take(kept: np.ndarray | _Rebuild) -> np.ndarray:
    """The array behind what ``_keep`` returned."""
    return kept.take() if type(kept) is _Rebuild else kept


class Tensor:
    """A dense array participating in reverse-mode gradient computation."""

    # ``_rebuild``: ``None``, or the ``_Rebuild`` that ``_result`` attached
    __slots__ = ("data", "requires_grad", "grad", "_node", "_rebuild", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None
        self._rebuild: _Rebuild | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward,
                rebuild: tuple | None = None) -> "Tensor":
        """The op result ``data``, with a node when any of ``parents`` records.

        ``rebuild`` is ``(build, *sources)`` for a ``_Rebuild`` of ``data``,
        attached only when the node is recorded. An op passes one when its
        array can be rebuilt bit for bit from arrays its own node keeps and
        from leaf arrays (parameters, which outlive the graph), so a source is
        such an array or the recipe a kept operand carries.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._node = None
        out._rebuild = None
        out.requires_grad = False
        if _grad_enabled:
            links = tuple(
                (p if p._node is None else p._node) if p.requires_grad else None
                for p in parents
            )
            if links.count(None) < len(links):
                out.requires_grad = True
                out._node = _Node(backward, data.dtype, links)
                if rebuild is not None:
                    out._rebuild = _Rebuild(*rebuild)
        return out

    @property
    def _backward(self) -> Callable[[np.ndarray], Sequence[np.ndarray | None]] | None:
        """The recorded backward closure (``None`` for a leaf or an unrecorded result)."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node.backward = fn

    # -- basic properties ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- backward pass -----------------------------------------------------------

    def backward(self, grad=None) -> None:
        """Accumulate gradients of ``self`` into the ``.grad`` of every reachable leaf.

        A leaf is a tensor no operation recorded: a parameter or an input built
        with ``requires_grad=True``. Only leaves keep ``.grad``; interior results
        never get one. The walk runs over graph nodes, not tensors: a node holds
        its closure and links to its parents' nodes, and each closure holds only
        the arrays its backward reads, so intermediate results that no backward
        reads were already freed during the forward pass. Each node is visited
        once, and its closure and parent links are dropped as soon as the walk
        has used them, so the saved arrays are freed while the walk goes on. The
        recorded graph is therefore single-use: a later ``backward()`` that
        reaches any released node raises :class:`GraphReleasedError` before it
        writes a gradient. Leaves that do not contribute to ``self`` are never
        touched (``.grad`` stays ``None``).
        """
        if not self.requires_grad:
            raise ShapeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(f"backward() without a seed needs a scalar, got shape {self.shape}")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError(f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}")

        # Entries are nodes and leaf tensors; leaves have no parents to visit.
        root = self if self._node is None else self._node
        topo: list[_Node | Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
        while stack:
            entry, done = stack.pop()
            if done:
                topo.append(entry)
                continue
            if id(entry) in visited:
                continue
            visited.add(id(entry))
            if type(entry) is not _Node:
                topo.append(entry)
                continue
            if entry.backward is _RELEASED:
                raise GraphReleasedError(
                    "backward() reached a graph that an earlier backward() already "
                    "released; recompute the forward pass"
                )
            stack.append((entry, True))
            for p in entry.parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))

        # Every key in ``pending`` is the id of an entry still held by ``topo``.
        pending: dict[int, np.ndarray] = {id(root): grad}
        while topo:
            entry = topo.pop()
            g = pending.pop(id(entry), None)
            if type(entry) is not _Node:
                if g is not None:
                    entry.grad = g if entry.grad is None else entry.grad + g
                continue
            backward, parents = entry.backward, entry.parents
            entry.backward, entry.parents = _RELEASED, None
            if g is not None:
                _accumulate(pending, parents, backward(g))

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar ------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def _accumulate(pending: dict[int, np.ndarray], parents, parent_grads) -> None:
    """Add each parent's gradient, cast to the parent's dtype, into ``pending``."""
    for parent, pg in zip(parents, parent_grads):
        if pg is None or parent is None:
            continue
        pg = np.asarray(pg)
        if pg.dtype != parent.dtype:
            pg = pg.astype(parent.dtype)
        prev = pending.get(id(parent))
        pending[id(parent)] = pg if prev is None else prev + pg


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


# -- broadcasting rules ------------------------------------------------------------


def _is_suffix(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    return len(small) <= len(big) and big[len(big) - len(small):] == small


def _check_binary_shapes(a: Tensor, b: Tensor, opname: str) -> None:
    sa, sb = a.shape, b.shape
    if sa == sb or _is_suffix(sa, sb) or _is_suffix(sb, sa):
        return
    raise ShapeError(f"{opname}: incompatible shapes {sa} and {sb}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` (undoing suffix/explicit broadcast)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if gd != sd and sd == 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g.reshape(shape)


def _coerce_pair(a, b, opname: str) -> tuple[Tensor, Tensor]:
    a = as_tensor(a)
    b = as_tensor(b, dtype=a.dtype if np.isscalar(b) or not isinstance(b, (Tensor, np.ndarray)) else None)
    _check_binary_shapes(a, b, opname)
    return a, b


# -- elementwise arithmetic -----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce_pair(a, b, "add")
    out = a.data + b.data
    sa, sb = a.shape, b.shape
    need_a, need_b = _records(a), _records(b)

    def backward(g):
        return (_reduce_to(g, sa) if need_a else None,
                _reduce_to(g, sb) if need_b else None)

    return Tensor._result(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce_pair(a, b, "sub")
    out = a.data - b.data
    sa, sb = a.shape, b.shape
    need_a, need_b = _records(a), _records(b)

    def backward(g):
        return (_reduce_to(g, sa) if need_a else None,
                _reduce_to(-g, sb) if need_b else None)

    return Tensor._result(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b, "mul")
    out = a.data * b.data
    sa, sb = a.shape, b.shape
    # each operand's gradient reads only the other operand, kept as its recipe
    # when it has one
    bd = _keep(b) if _records(a) else None
    ad = _keep(a) if _records(b) else None

    def backward(g):
        return (None if bd is None else _reduce_to(g * _take(bd), sa),
                None if ad is None else _reduce_to(g * _take(ad), sb))

    both = ad is not None and bd is not None
    return Tensor._result(out, (a, b), backward, (np.multiply, ad, bd) if both else None)


def div(a, b) -> Tensor:
    a, b = _coerce_pair(a, b, "div")
    out = a.data / b.data
    sa, sb = a.shape, b.shape
    need_a, need_b = _records(a), _records(b)
    bd = b.data
    ad = a.data if need_b else None    # only the divisor's gradient reads the dividend

    def backward(g):
        ga = _reduce_to(g / bd, sa) if need_a else None
        gb = _reduce_to(-g * ad / (bd * bd), sb) if need_b else None
        return ga, gb

    return Tensor._result(out, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor._result(-a.data, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return Tensor._result(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    return Tensor._result(np.log(x), (a,), lambda g: (g / x,))


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the input is interior."""
    a = as_tensor(a)
    x = a.data
    out = np.clip(x, lo, hi)

    def backward(g):
        mask = (x >= lo) & (x <= hi)
        return (g * mask,)

    return Tensor._result(out, (a,), backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# erf from cephes (S. L. Moshier): ndtrf.c in float32, ndtr.c in float64.
# float32: erf(x) = x T(x^2) for |x| <= 1; beyond, erfc(a) = exp(-a^2) (1/a) P(1/a^2)
# for a = |x| < 2 and the same with R for a >= 2.
_ERF_T32 = (7.853861353153693e-05, -8.010193625184903e-04, 5.188327685732524e-03,
            -2.685381193529856e-02, 1.128358514861418e-01, -3.761262582423300e-01,
            1.128379165726710e+00)
_ERFC_P32 = (2.326819970068386e-02, -1.387039388740657e-01, 3.687424674597105e-01,
             -5.824733027278666e-01, 6.210004621745983e-01, -4.944515323274145e-01,
             3.404879937665872e-01, -2.741127028184656e-01, 5.638259427386472e-01)
_ERFC_R32 = (-1.047766399936249e+01, 1.297719955372516e+01, -7.495518717768503e+00,
             2.921019019210786e+00, -1.015265279202700e+00, 4.218463358204948e-01,
             -2.820767439740514e-01, 5.641895067754075e-01)
# float64: erf(x) = x T(x^2) / U(x^2) for |x| <= 1; beyond, erfc(a) = exp(-a^2) P(a) / Q(a).
# U and Q lead with cephes' implicit 1.
_ERF_T64 = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
            7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U64 = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
            2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P64 = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
             4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
             9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q64 = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
             9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
             1.65666309194161350182e3, 5.57535340817727675546e2)
# erf rounds to 1 beyond |x| ~ 3.9 in float32 and ~ 5.9 in float64, so the tail clamps
# |x| to this before squaring: inf and 3e38 do not overflow, and ndtr.c's R/S series
# for x >= 8, whose tiny erfc 1 - erfc rounds away, is not needed
_ERF_CLAMP = 6.0
# elements per erf/GELU pass: the block and its scratch arrays stay in cache
_ERF_BLOCK = 1 << 16
# beyond +-40, exp(-x^2 / 2) is 0 and the GELU cdf is exactly 0 or 1 in float32 and
# float64, so clamping x there changes no finite result, and +-inf gives the limits
_GELU_CLAMP = 40.0


def _horner(x: np.ndarray, coefs, out: np.ndarray | None = None) -> np.ndarray:
    """``coefs[0] x^n + ... + coefs[n]`` in cephes' ``polevl`` order, in ``out`` if given."""
    out = np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _erf_tail(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """erf(x) from ``a = |x| > 1`` as ``copysign(1 - erfc(a), x)``."""
    np.minimum(a, _ERF_CLAMP, out=a)
    z = a * a
    np.negative(z, out=z)
    np.exp(z, out=z)
    if a.dtype == np.float64:
        z *= _horner(a, _ERFC_P64)
        z /= _horner(a, _ERFC_Q64)
    else:
        q = 1.0 / a
        z *= q
        q *= q
        near = a < 2.0
        p = np.empty_like(q)
        p[near] = _horner(q[near], _ERFC_P32)
        p[~near] = _horner(q[~near], _ERFC_R32)
        z *= p
    np.subtract(1.0, z, out=z)
    return np.copysign(z, x, out=z)


def _erf_inplace(z: np.ndarray, s: np.ndarray, t: np.ndarray) -> None:
    """Overwrite the 1-D float32 or float64 array ``z`` with erf(z).

    ``s`` and ``t`` are scratch arrays of ``z``'s length and dtype. The |z| <= 1
    majority takes the odd series ``z T(z^2)`` (``/ U(z^2)`` in float64) in place;
    the rest is gathered, evaluated by ``_erf_tail`` and scattered back, so
    erf(-z) == -erf(z) bit for bit and +-0 keeps its sign.
    """
    np.abs(z, out=s)
    far = np.flatnonzero(s > 1.0)
    if far.size:
        tail = _erf_tail(z[far], s[far])
        z[far] = 0.0    # keeps the series below from overflowing on huge |z|
    np.multiply(z, z, out=s)
    if z.dtype == np.float64:
        z *= _horner(s, _ERF_T64, t)
        z /= _horner(s, _ERF_U64, t)
    else:
        z *= _horner(s, _ERF_T32, t)
    if far.size:
        z[far] = tail


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU.

    Works over blocks of ``_ERF_BLOCK`` elements: per block it forms
    ``cdf = (erf(x / sqrt 2) + 1) / 2`` in a scratch array, then, when the call
    records a node, the slope ``cdf + x * pdf``, which is all backward keeps
    (not the input or ``cdf``), and last the output ``x * cdf``. Under
    ``no_grad`` it computes nothing extra. float64 inputs are computed in
    float64, others in float32. At +-inf the output is +inf / -0.0 and the
    slope 1 / 0, their limits.
    """
    a = as_tensor(a)
    return _gelu_into(a, np.empty(a.shape, a.dtype))


def linear_gelu(x, weight, bias=None) -> Tensor:
    """``gelu(linear(x, weight, bias))``, with the GELU written over the linear's output.

    No backward reads a linear's output, so its freshly allocated buffer takes
    the GELU in place (each block's slope is formed before the block is
    overwritten) and no second [rows, out] array is allocated. The graph holds
    the same two nodes as the composition, so the output and every gradient
    are bit-identical to it.
    """
    pre = linear(x, weight, bias)
    return _gelu_into(pre, pre.data)


def _gelu_into(a: Tensor, out: np.ndarray) -> Tensor:
    """GELU of ``a`` written into ``out`` (a fresh array, or ``a.data`` itself)."""
    x = a.data
    slope = np.empty(x.shape, x.dtype) if _records(a) else None
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    flat_slope = None if slope is None else slope.reshape(-1)
    n = flat_x.size
    work = np.float64 if x.dtype == np.float64 else np.float32
    cdf, s, t = np.empty((3, min(n, _ERF_BLOCK)), work)
    for lo in range(0, n, _ERF_BLOCK):
        xb = flat_x[lo:lo + _ERF_BLOCK]
        m = xb.size
        c, sc, tc = cdf[:m], s[:m], t[:m]
        np.multiply(xb, _INV_SQRT2, out=c)
        _erf_inplace(c, sc, tc)
        c += 1.0
        c *= 0.5
        # cdf is exactly 0 below -_GELU_CLAMP, so x * cdf there is -0.0 and -inf gives it too
        np.maximum(xb, -_GELU_CLAMP, out=sc)
        if flat_slope is not None:
            # in place, in the order of cdf + x * (exp(-0.5 * x * x) * _INV_SQRT_2PI),
            # with x clamped to +-_GELU_CLAMP, where the pdf term is already +-0.0
            np.minimum(sc, _GELU_CLAMP, out=tc)
            sb = flat_slope[lo:lo + m]
            np.multiply(tc, -0.5, out=sb)
            sb *= tc
            np.exp(sb, out=sb)
            sb *= _INV_SQRT_2PI
            sb *= tc
            sb += c
        np.multiply(sc, c, out=flat_out[lo:lo + m])
    return Tensor._result(out, (a,), lambda g: (g * slope,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1.0 / (1.0 + np.exp(-x))``, bit for bit, in one array."""
    s = np.negative(x, out=np.empty(x.shape, x.dtype))
    with np.errstate(over="ignore"):     # exp(-x) = inf for x << 0 gives sig = 0
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def silu(a) -> Tensor:
    """``x * sigmoid(x)``; backward keeps only ``x`` (its recipe when it has one).

    The sigmoid is a recipe of its own, read by the backward and by the
    output's recipe ``x * sigmoid(x)``, so a backward that rebuilds the output
    too computes the sigmoid once.
    """
    a = as_tensor(a)
    x = a.data
    s = _sigmoid(x)
    out = np.multiply(x, s, out=s)
    if not _records(a):
        return Tensor._result(out, (a,), None)
    xk = _keep(a)
    sig = _Rebuild(_sigmoid, xk).keep()

    def backward(g):
        # g * s * (1.0 + x * (1.0 - s)), in two arrays
        x, s = _take(xk), sig.take()
        slope = np.subtract(1.0, s)
        slope *= x
        slope += 1.0
        gx = g * s
        gx *= slope
        return (gx,)

    return Tensor._result(out, (a,), backward, (np.multiply, xk, sig))


def softplus(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.logaddexp(0.0, x).astype(a.dtype, copy=False)

    def backward(g):
        with np.errstate(over="ignore"):     # exp(-x) = inf for x << 0 gives a zero slope
            return (g / (1.0 + np.exp(-x)),)

    return Tensor._result(out, (a,), backward)


# -- structural ops ---------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    out = a.data.reshape(shape)
    sa = a.shape
    recipe = None if a._rebuild is None else (lambda y: y.reshape(shape), a._rebuild)
    return Tensor._result(out, (a,), lambda g: (g.reshape(sa),), recipe)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Tensor._result(_transposed(a.data, axes), (a,), lambda g: (g.transpose(inv),))


def _transposed(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``np.ascontiguousarray(x.transpose(axes))``, byte for byte.

    When the last axis stays last and ``x`` is C-contiguous, each last-axis row
    moves whole as one ``np.void`` record: a byte copy per row instead of one
    element at a time (~4x faster at the attention's head split).
    """
    nd = x.ndim
    if nd < 2 or axes[-1] != nd - 1 or not x.flags.c_contiguous or x.size == 0:
        return np.ascontiguousarray(x.transpose(axes))
    rows = x.view(np.dtype((np.void, x.shape[-1] * x.itemsize)))[..., 0]
    moved = np.ascontiguousarray(rows.transpose(axes[:-1]))
    return moved.view(x.dtype).reshape(moved.shape + x.shape[-1:])


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    out = np.broadcast_to(a.data, shape)
    sa = a.shape
    return Tensor._result(out, (a,), lambda g: (_reduce_to(g, sa),))


def cast(a, dtype) -> Tensor:
    a = as_tensor(a)
    dtype = np.dtype(dtype)
    out = a.data.astype(dtype, copy=False)
    return Tensor._result(out, (a,), lambda g: (g,))


def concat(tensors: Iterable, axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    ax = axis if axis >= 0 else out.ndim + axis
    splits = np.cumsum([t.shape[ax] for t in ts])[:-1]
    needs = [_records(t) for t in ts]

    def backward(g):
        return tuple(part.copy() if need else None
                     for part, need in zip(np.split(g, splits, axis=ax), needs))

    return Tensor._result(out, tuple(ts), backward)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis`` starting at ``start``."""
    a = as_tensor(a)
    ax = axis if axis >= 0 else a.ndim + axis
    if start < 0 or start + length > a.shape[ax]:
        raise ShapeError(f"narrow: slice [{start}:{start + length}] exceeds dim {a.shape[ax]}")
    idx = [slice(None)] * a.ndim
    idx[ax] = slice(start, start + length)
    idx = tuple(idx)
    out = np.ascontiguousarray(a.data[idx])
    sa = a.shape

    def backward(g):
        full = np.zeros(sa, dtype=g.dtype)
        full[idx] = g
        return (full,)

    recipe = None if a._rebuild is None else (lambda y: np.ascontiguousarray(y[idx]), a._rebuild)
    return Tensor._result(out, (a,), backward, recipe)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    sa = a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)   # negative axes count from the end of sa
        return (np.broadcast_to(g, sa),)

    return Tensor._result(np.asarray(out), (a,), backward)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# -- linear algebra -------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Batched matrix product with numpy semantics on the last two axes.

    Leading batch dimensions must match exactly on both operands, or be
    absent on one side (shared weight).
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree for {a.shape} @ {b.shape}")
    batch_a, batch_b = a.shape[:-2], b.shape[:-2]
    if batch_a != batch_b and batch_a != () and batch_b != ():
        raise ShapeError(f"matmul: batch dims disagree for {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)
    sa, sb = a.shape, b.shape
    # each operand's gradient reads only the other operand
    bd = b.data if _records(a) else None
    ad = a.data if _records(b) else None

    def backward(g):
        # a contiguous copy of each transposed operand: numpy's matmul over the
        # swapaxes view gives the same bits but takes up to ~1.9x as long at the
        # attention shapes
        ga = gb = None
        if bd is not None:
            ga = _reduce_to(np.matmul(g, np.ascontiguousarray(np.swapaxes(bd, -1, -2))), sa)
        if ad is not None:
            gb = _reduce_to(np.matmul(np.ascontiguousarray(np.swapaxes(ad, -1, -2)), g), sb)
        return ga, gb

    return Tensor._result(out, (a, b), backward)


def linear(x, weight, bias=None) -> Tensor:
    """Affine map ``y = x @ weight + bias`` along the trailing dimension."""
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-d, got {weight.shape}")
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear: input dim {x.shape} incompatible with weight {weight.shape}")
    d_in, d_out = weight.shape
    sx = x.shape
    out_shape = sx[:-1] + (d_out,)
    parents: tuple[Tensor, ...]
    has_bias = bias is not None
    need_b = False
    if has_bias:
        bias = as_tensor(bias)
        if bias.shape != (d_out,):
            raise ShapeError(f"linear: bias shape {bias.shape} != ({d_out},)")
        parents = (x, weight, bias)
        need_b = _records(bias)
    else:
        parents = (x, weight)
    wd, bd = weight.data, bias.data if has_bias else None

    def affine(xa):
        # one 2-D GEMM over all leading rows, not one small GEMM per batch entry
        y = np.matmul(xa.reshape(-1, d_in), wd)
        if bd is not None:
            y += bd
        return y.reshape(out_shape)

    out = affine(x.data)
    # the input's gradient reads only the weight, the weight's only the input; an
    # input that can rebuild its array (a norm output) is kept as its recipe
    w = wd if _records(x) else None
    xk = _keep(x) if _records(weight) else None

    def backward(g):
        gf = g.reshape(-1, d_out)
        gx = None if w is None else np.matmul(gf, w.T).reshape(sx)
        gw = None if xk is None else np.matmul(_take(xk).reshape(-1, d_in).T, gf)
        if has_bias:
            return gx, gw, gf.sum(axis=0) if need_b else None
        return gx, gw

    leaves = weight._node is None and (bias is None or bias._node is None)
    return Tensor._result(out, parents, backward,
                          (affine, xk) if xk is not None and leaves else None)


def embedding_lookup(table, indices) -> Tensor:
    """Row gather: ``out[...] = table[indices[...]]`` with scatter-add backward."""
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    if np.any(idx < 0) or np.any(idx >= table.shape[0]):
        raise ShapeError(f"embedding_lookup: index out of range for table {table.shape}")
    out = table.data[idx]
    st = table.shape

    def backward(g):
        gt = np.zeros(st, dtype=g.dtype)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, st[-1]))
        return (gt,)

    return Tensor._result(np.ascontiguousarray(out), (table,), backward)


# -- normalizations and stable reductions ---------------------------------------------------


# numpy's sum over a contiguous axis: 8 lanes and a fixed tree up to this length,
# recursive halving beyond it
_PAIRWISE_BLOCK = 128


def _lastdim_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` as one elementwise max per slice of the last axis."""
    acc = x[..., 0:1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(acc, x[..., j:j + 1], out=acc)
    return acc


def _lastdim_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)``, bit for bit, as elementwise adds over slices.

    Follows numpy's own order for a row of n: in sequence for n < 8; for
    8 <= n <= 128, eight running lanes, the tree ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
    then the remainder in sequence. numpy starts from +0.0, so ``+ 0.0`` (which
    also makes the accumulator a fresh array) turns a row of -0.0 into +0.0 too.
    """
    n = x.shape[-1]
    if n == 0 or n > _PAIRWISE_BLOCK:
        return x.sum(axis=-1, keepdims=True)
    if n < 8:
        acc = x[..., 0:1] + 0.0
        for j in range(1, n):
            acc += x[..., j:j + 1]
        return acc
    lanes = x[..., 0:8] + 0.0
    stop = n - n % 8
    for i in range(8, stop, 8):
        lanes += x[..., i:i + 8]
    r = [lanes[..., j:j + 1] for j in range(8)]
    acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(stop, n):
        acc += x[..., j:j + 1]
    return acc


def logsumexp_lastdim(a) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` over the last dimension.

    The axis is short here (mixture components, agents), and numpy's ``max``/``sum``
    reduce it with one inner-loop call per row, so this reduces over the axis's
    slices instead (``_lastdim_max``/``_lastdim_sum``). The sum keeps numpy's
    order, so the result is bit-identical.
    """
    a = as_tensor(a)
    m = _lastdim_max(a.data)
    shifted = np.exp(a.data - m)
    total = _lastdim_sum(shifted)
    out = (m + np.log(total)).squeeze(-1)

    def backward(g):
        return (g[..., None] * (shifted / total),)

    return Tensor._result(np.asarray(out), (a,), backward)


def softmax_lastdim(a, extra=None, scale: float | None = None) -> Tensor:
    """Softmax over the last dimension, of ``(a + extra) * scale`` when those are given.

    Attention over 5-11 agents gives rows of 5-11 scores; numpy's ``max``/``sum``
    make one inner-loop call per row, which on rows of 5 costs ~30x one
    elementwise ufunc per slice, so this reduces over the axis's slices
    instead (``_lastdim_max``/``_lastdim_sum``). The sum keeps numpy's order, so
    forward and backward are bit-identical to ``x.max``/``x.sum``.

    ``extra`` and ``scale`` are attention's extra score term and its
    ``1 / sqrt(head dim)``. The sum, the scaling and the softmax all happen in
    one buffer, where ``add``, ``mul`` and ``softmax_lastdim`` one after the
    other would hold three arrays of scores; the output and the gradients are
    bit-identical to that composition (``scale`` is cast to the scores' dtype,
    as ``mul`` casts a Python scalar). The backward is the softmax's, times
    ``scale``, handed to both ``a`` and ``extra``.
    """
    a = as_tensor(a)
    parents: tuple[Tensor, ...] = (a,)
    out = a.data
    if extra is not None:
        a, extra = _coerce_pair(a, extra, "softmax_lastdim")
        parents = (a, extra)
        out = a.data + extra.data
    if scale is not None:
        scale = np.asarray(scale, dtype=out.dtype)
        out = out * scale if out is a.data else np.multiply(out, scale, out=out)
    m = _lastdim_max(out)
    out = out - m if out is a.data else np.subtract(out, m, out=out)
    np.exp(out, out=out)
    out /= _lastdim_sum(out)
    shapes = tuple(p.shape for p in parents)

    def backward(g):
        gx = g * out
        inner = _lastdim_sum(gx)
        np.subtract(g, inner, out=gx)
        gx *= out
        if scale is not None:
            gx *= scale
        return tuple(_reduce_to(gx, s) for s in shapes)

    return Tensor._result(out, parents, backward)


def _affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """A norm's ``xhat * gain (+ bias)``, in ``out`` unless the affine widens the dtype.

    The forward writes into its scratch array; a norm output's recipe calls it
    again on the ``xhat`` the norm's node keeps, so the rebuilt array has the
    forward's ufuncs, order and dtype (float64 when grad_check promotes the
    gain and bias of a float32 input).
    """
    dtype = np.result_type(xhat, gain) if bias is None else np.result_type(xhat, gain, bias)
    if out is None or out.dtype != dtype:
        out = np.empty(xhat.shape, dtype)
    np.multiply(xhat, gain, out=out)
    if bias is not None:
        out += bias
    return out


def layer_norm(x, gain, bias) -> Tensor:
    """Per-vector standardization over the last dimension, then affine.

    Forward and backward each allocate two full-size arrays and work in them
    with in-place ufuncs, in the order of the plain expressions in the
    comments, so every result is bit-identical to them.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: affine shapes {gain.shape}/{bias.shape} != ({d},)")
    gd, bd = gain.data, bias.data
    # xc = x - mean(x); xhat = xc / sqrt(mean(xc * xc) + eps); out = xhat * gain + bias
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    sq = xhat * xhat
    inv = 1.0 / np.sqrt(sq.mean(axis=-1, keepdims=True) + NORM_EPS)
    xhat *= inv
    out = _affine(xhat, gd, bd, out=sq)

    def backward(g):
        # gx_hat = g * gain
        # gx = inv * (gx_hat - mean(gx_hat) - xhat * mean(gx_hat * xhat))
        gx = g * gd
        mean_g = gx.mean(axis=-1, keepdims=True)
        t = gx * xhat
        mean_gx = t.mean(axis=-1, keepdims=True)
        gx -= mean_g
        gx -= np.multiply(xhat, mean_gx, out=t)
        gx *= inv
        ggain = np.multiply(g, xhat, out=t).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        return gx, ggain, gbias

    return Tensor._result(out, (x, gain, bias), backward, (_affine, xhat, gd, bd))


def rms_norm(x, gain) -> Tensor:
    """Scaling by the root mean square over the last dimension, then a gain.

    Allocates two full-size arrays in each direction, like ``layer_norm``.
    """
    x, gain = as_tensor(x), as_tensor(gain)
    d = x.shape[-1]
    if gain.shape != (d,):
        raise ShapeError(f"rms_norm: gain shape {gain.shape} != ({d},)")
    gd = gain.data
    # xhat = x / sqrt(mean(x * x) + eps); out = xhat * gain
    sq = x.data * x.data
    inv = 1.0 / np.sqrt(sq.mean(axis=-1, keepdims=True) + NORM_EPS)
    xhat = x.data * inv
    out = _affine(xhat, gd, out=sq)

    def backward(g):
        # gx = inv * (g * gain - xhat * mean(g * gain * xhat))
        gx = g * gd
        t = gx * xhat
        mean_gx = t.mean(axis=-1, keepdims=True)
        gx -= np.multiply(xhat, mean_gx, out=t)
        gx *= inv
        ggain = np.multiply(g, xhat, out=t).reshape(-1, d).sum(axis=0)
        return gx, ggain

    return Tensor._result(out, (x, gain), backward, (_affine, xhat, gd))


# -- causal sequence ops -------------------------------------------------------------------


def max_pool_window(x) -> Tensor:
    """Causal channelwise max over the second-to-last axis.

    ``out[..., t, :]`` is the max of the prefix ``x[..., : t+1, :]``. The
    gradient routes to the lowest-index argmax, which is computed only when
    the call records a node.
    """
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"max_pool_window: input must be >= 2-d, got {x.shape}")
    xd = x.data
    out = np.maximum.accumulate(xd, axis=-2)
    sx = xd.shape
    T = sx[-2]
    idx = None
    if _records(x):
        # frame t > 0 is a candidate where it beats every earlier frame (strict:
        # ties keep the earlier index); frame 0 always is, as the fill index 0
        is_new = np.zeros(sx, dtype=bool)
        is_new[..., 1:, :] = xd[..., 1:, :] > out[..., :-1, :]
        # the narrowest integer that holds T - 1: the index is kept until backward
        tgrid = np.arange(T, dtype=np.min_scalar_type(T - 1))
        tgrid = tgrid.reshape((1,) * (xd.ndim - 2) + (T, 1))
        idx = np.maximum.accumulate(np.where(is_new, tgrid, 0), axis=-2)

    def backward(g):
        R, D = math.prod(sx[:-2]), sx[-1]
        gx = np.zeros((R, T, D), dtype=g.dtype)
        rows = np.arange(R).reshape(R, 1, 1)
        np.add.at(gx, (rows, idx.reshape(R, T, D), np.arange(D)), g.reshape(R, T, D))
        return (gx.reshape(sx),)

    return Tensor._result(out, (x,), backward)


def causal_depthwise_conv(x, weight) -> Tensor:
    """Depthwise causal 1-d convolution along axis -2.

    ``weight`` has shape [K, C]; output[t, c] = sum_j weight[j, c] *
    x[t - K + 1 + j, c] with zero left padding.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    K, C = weight.shape
    if x.shape[-1] != C:
        raise ShapeError(f"causal_depthwise_conv: channels {x.shape} vs weight {weight.shape}")
    T = x.shape[-2]
    pad_shape = x.shape[:-2] + (K - 1, C)
    wd = weight.data

    def padded(xa):
        return np.concatenate([np.zeros(pad_shape, dtype=xa.dtype), xa], axis=-2)

    xpad = padded(x.data)
    out = np.zeros(x.shape, dtype=x.dtype)
    for j in range(K):
        out += xpad[..., j: j + T, :] * wd[j]
    # the input's gradient reads only the weight; the weight's reads the padded
    # input, which backward pads again from the input (or the input's recipe)
    need_x = _records(x)
    xk = _keep(x) if _records(weight) else None

    def backward(g):
        gx = gw = None
        if need_x:
            gxp = np.zeros(pad_shape[:-2] + (T + K - 1, C), dtype=g.dtype)
            for j in range(K):
                gxp[..., j: j + T, :] += g * wd[j]
            gx = gxp[..., K - 1:, :]
        if xk is not None:
            xp = padded(_take(xk))
            gw = np.zeros((K, C), dtype=g.dtype)
            for j in range(K):
                gw[j] = (g * xp[..., j: j + T, :]).reshape(-1, C).sum(axis=0)
        return gx, gw

    return Tensor._result(out, (x, weight), backward)


SCAN_CHUNK = 8      # frames per ssm_scan chunk; chunks start at frames 0, 8, 16, ...

# _LATER[k, j]: frame k of a chunk comes after frame j
_LATER = np.tril(np.ones((SCAN_CHUNK, SCAN_CHUNK), dtype=bool), -1)
# _SEG_TERMS[i * Q + j, k]: log decay k is a term of the segment sum [i, j]
_SEG_TERMS = (_LATER.T[None, :, :] & np.tri(SCAN_CHUNK, dtype=bool)[:, None, :]).reshape(
    SCAN_CHUNK * SCAN_CHUNK, SCAN_CHUNK
)


def ssm_scan(log_decay, xdt, b_in, c_out) -> Tensor:
    """Data-dependent diagonal state-space recurrence, evaluated chunk by chunk.

    Shapes: log_decay [L, T, H]; xdt [L, T, H, P]; b_in, c_out [L, T, S].
    Per head, from h_{-1} = 0:
    h_t = exp(log_decay_t) * h_{t-1} + xdt_t (outer) b_t and
    y_t[h, p] = sum_s c_t[s] * h_t[h, p, s].

    The frames are cut into chunks of ``SCAN_CHUNK`` at fixed absolute frames,
    [0, 8), [8, 16), ..., whatever T is; the last chunk is zero-padded, so
    frame t's output does not depend on T. Inside a chunk the recurrence is the
    SSD form of Dao & Gu (arXiv:2405.21060): ``y = (C B^T * E) @ x`` with the
    decay matrix ``E[i, j] = exp(sum of log_decay over j < k <= i)``: the sums
    come from a masked float64 cumsum, are set to -inf above the diagonal
    before ``exp``, and E is cast to the input dtype. The state each
    chunk ends in is carried into the next, adding ``exp(cumsum) * (C . h)``
    to its output; that carry is the only loop. The backward is written out
    by hand. It keeps the decays, B, C, ``C B^T`` and ``xdt``'s recipe (its
    array when it has none), and rebuilds the rest.
    """
    log_decay, xdt = as_tensor(log_decay), as_tensor(xdt)
    b_in, c_out = as_tensor(b_in), as_tensor(c_out)
    L, T, H = log_decay.shape
    P = xdt.shape[-1]
    S = b_in.shape[-1]
    if xdt.shape != (L, T, H, P) or b_in.shape != (L, T, S) or c_out.shape != (L, T, S):
        raise ShapeError(
            f"ssm_scan: inconsistent shapes log_decay={log_decay.shape} xdt={xdt.shape} "
            f"b={b_in.shape} c={c_out.shape}"
        )
    dt = xdt.dtype
    Q = SCAN_CHUNK
    nc = -(-T // Q)

    def chunked(a, dtype):
        """[L, T, ...] -> [L, nc, Q, ...], zero-padded at the end."""
        out = np.zeros((L, nc * Q) + a.shape[2:], dtype=dtype)
        out[:, :T] = a
        return out.reshape((L, nc, Q) + a.shape[2:])

    def by_head(a):
        """[L, nc, Q, H, P] -> a [L, nc, H, Q, P] view."""
        return a.transpose(0, 1, 3, 2, 4)

    la = chunked(log_decay.data, np.float64).transpose(0, 1, 3, 2)     # [L, nc, H, Q]
    X = by_head(chunked(xdt.data, dt))                                 # [L, nc, H, Q, P]
    Bc, Cc = chunked(b_in.data, dt), chunked(c_out.data, dt)           # [L, nc, Q, S]
    # seg[i, j] = sum of la over j < k <= i: a masked cumsum, -inf above the diagonal
    seg = np.cumsum(np.where(_LATER, la[..., :, None], 0.0), axis=-2)
    seg[..., _LATER.T] = -np.inf
    E = np.exp(seg).astype(dt)                          # [L, nc, H, Q, Q]
    e_in = np.exp(np.cumsum(la, axis=-1)).astype(dt)   # chunk start -> frame i
    e_out = E[:, :-1, :, Q - 1, :, None]               # frame j -> chunk end
    e_all = e_in[:, :, :, Q - 1, None, None]           # [L, nc, H, 1, 1]

    G = Cc @ Bc.swapaxes(-1, -2)                       # G[i, j] = C_i . B_j
    Be = Bc[:, :-1, None] * e_out                      # [L, nc-1, H, Q, S]

    def chunk_states(X):
        """The state every chunk starts in, [L, nc, H, S, P]: each chunk's own
        frames give the state it ends in (``local``), carried into the next."""
        local = Be.swapaxes(-1, -2) @ X[:, :-1]
        h_in = np.zeros((L, nc, H, S, P), dtype=dt)
        for c in range(1, nc):
            np.multiply(e_all[:, c - 1], h_in[:, c - 1], out=h_in[:, c])
            h_in[:, c] += local[:, c - 1]
        return h_in

    y = np.empty((L, nc * Q, H, P), dtype=dt)
    Y = by_head(y.reshape(L, nc, Q, H, P))
    np.matmul(G[:, :, None] * E, X, out=Y)
    Y += (Cc[:, :, None] * e_in[..., None]) @ chunk_states(X)
    # backward rebuilds the chunks of xdt, M, Ce and the chunk states from what
    # it keeps: xdt's recipe when it has one, else xdt's unpadded array
    x_kept = _keep(xdt)

    def backward(g):
        X = by_head(chunked(_take(x_kept), dt))
        M = G[:, :, None] * E
        Ce = Cc[:, :, None] * e_in[..., None]              # [L, nc, H, Q, S]
        h_in = chunk_states(X)
        dY = by_head(chunked(g, g.dtype))
        dM = dY @ X.swapaxes(-1, -2)
        dx = np.empty((L, nc * Q, H, P), dtype=g.dtype)
        dX = by_head(dx.reshape(L, nc, Q, H, P))
        np.matmul(M.swapaxes(-1, -2), dY, out=dX)
        dG = (dM * E).sum(axis=2)
        dseg = dM * M                                  # d/dseg of exp(seg)
        dCe = dY @ h_in.swapaxes(-1, -2)
        dh_in = Ce.swapaxes(-1, -2) @ dY
        dC = dG @ Bc + (dCe * e_in[..., None]).sum(axis=2)
        dB = dG.swapaxes(-1, -2) @ Cc
        dcum = (dCe * Cc[:, :, None]).sum(axis=-1) * e_in   # d/dcumsum of exp(cumsum)
        if nc > 1:
            dlocal = np.empty((L, nc - 1, H, S, P), dtype=dt)
            dlocal[:, nc - 2] = dh_in[:, nc - 1]
            for c in range(nc - 2, 0, -1):
                dlocal[:, c - 1] = dh_in[:, c] + e_all[:, c] * dlocal[:, c]
            dcum[:, :-1, :, Q - 1] += (
                np.einsum("lchsp,lchsp->lch", dlocal, h_in[:, :-1]) * e_all[:, :-1, :, 0, 0]
            )
            dBe = X[:, :-1] @ dlocal.swapaxes(-1, -2)
            dX[:, :-1] += Be @ dlocal
            dB[:, :-1] += (dBe * e_out).sum(axis=2)
            dseg[:, :-1, :, Q - 1, :] += (dBe * Bc[:, :-1, None]).sum(axis=-1) * e_out[..., 0]
        # la[k] is a term of seg[i, j] for j < k <= i and of cumsum[i] for k <= i
        dla = (dseg.reshape(L, nc, H, Q * Q) @ _SEG_TERMS.astype(g.dtype)
               + dcum @ np.tri(Q, dtype=g.dtype))
        return (
            dla.transpose(0, 1, 3, 2).reshape(L, nc * Q, H)[:, :T],
            dx[:, :T],
            dB.reshape(L, nc * Q, S)[:, :T],
            dC.reshape(L, nc * Q, S)[:, :T],
        )

    return Tensor._result(y[:, :T], (log_decay, xdt, b_in, c_out), backward)


def ssm_scan_step(h, log_decay_t, xdt_t, b_t, c_t):
    """One frame of :func:`ssm_scan` on raw arrays; returns (y_t, new_h).

    Shapes: h [L, H, P, S]; log_decay_t [L, H]; xdt_t [L, H, P]; b_t, c_t
    [L, S]. Rollout's step path, and the reference the scan is tested against.
    """
    h = np.exp(log_decay_t)[:, :, None, None] * h + xdt_t[:, :, :, None] * b_t[:, None, None, :]
    y = np.einsum("lhps,ls->lhp", h, c_t)
    return y, h


# -- finite-difference verification ------------------------------------------------------


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients of a scalar ``f()`` against central differences.

    All parameter data is temporarily promoted to float64 so the comparison is
    made in double precision. Returns the max over checked coordinates of
    ``|analytic - numeric| / max(1, |numeric|)``. Large parameter sets can be
    subsampled via ``max_coords_per_param`` (deterministic under ``rng``).
    """
    saved = [p.data for p in params]
    try:
        for p in params:
            p.data = p.data.astype(np.float64)
        out = f()
        if out.data.size != 1:
            raise GradCheckError(f"grad_check target must be scalar, got shape {out.shape}")
        if not np.isfinite(out.data).all():
            raise GradCheckError("grad_check: objective is non-finite at the base point")
        for p in params:
            p.zero_grad()
        out.backward()
        analytic = [
            np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params
        ]

        worst = 0.0
        for k, p in enumerate(params):
            flat = p.data.reshape(-1)
            n = flat.size
            if max_coords_per_param is not None and n > max_coords_per_param:
                gen = rng if rng is not None else np.random.default_rng(0)
                coords = gen.choice(n, size=max_coords_per_param, replace=False)
            else:
                coords = range(n)
            for i in coords:
                orig = flat[i]
                flat[i] = orig + step
                with no_grad():
                    fp = float(f().data.reshape(-1)[0])
                flat[i] = orig - step
                with no_grad():
                    fm = float(f().data.reshape(-1)[0])
                flat[i] = orig
                if not (math.isfinite(fp) and math.isfinite(fm)):
                    raise GradCheckError(
                        f"grad_check: non-finite objective at parameter {k}, coordinate {i}"
                    )
                numeric = (fp - fm) / (2.0 * step)
                err = abs(analytic[k].reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
                worst = max(worst, err)
        return worst
    finally:
        for p, d in zip(params, saved):
            p.data = d
            p.zero_grad()
