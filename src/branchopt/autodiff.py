"""Forward-mode automatic differentiation, recorded once and replayed.

A differentiable callback is straight-line code over its inputs and
constants, built from ``+ - *``, ``/`` with an input as the numerator,
unary minus and this module's ``sin``, ``cos`` and ``sqrt``.  It may not
branch on an input or use anything else: comparisons, ``bool``, ``abs``,
``**``, a constant divided by an input and numpy functions of an input
raise ``TypeError`` when the callback is recorded.  Every other value it
reads (parameters, weights, targets) is a constant: one number, read
once, when it is recorded; an array raises ``TypeError`` too.

A :class:`Tape` records when it is made: it runs the callback once on
symbolic :class:`Node` inputs and keeps what it did: for each operation
its rule, its operand slots and its constants, and how many outputs the
callback returned.  :meth:`Tape.evaluate` replays the operations for a
batch of points as numpy calls into buffers allocated with the tape, and
returns those buffers as one flat array; :meth:`Tape.outputs` copies the
outputs' values and derivatives out of it, and :meth:`Tape.positions`
says where they are in it.  The rules are the usual forward-mode ones,
with fixed formulas (``a / b`` is ``a * (1 / b)``; the derivative of
``a * b`` is ``b·da + a·db``), so a replay gives the same bits at the
same point.

``sin``, ``cos`` and ``sqrt`` also take plain floats and arrays, so the
same callback runs on numbers.
"""

from __future__ import annotations

from functools import partial

import numpy as np

__all__ = ["Node", "Tape", "jacobian", "sin", "cos", "sqrt"]

_SQRT_NEGATIVE = "sqrt of negative value in dual evaluation"


class Node:
    """An intermediate value of a callback while a :class:`Tape` records it."""

    __slots__ = ("tape", "slot")
    # numpy defers its binary operators to the Node and refuses to apply
    # its own functions (np.exp, np.abs, ...) to one
    __array_ufunc__ = None

    def __init__(self, tape, slot):
        self.tape = tape
        self.slot = slot

    def __add__(self, other):
        if isinstance(other, Node):
            return self.tape._emit("add", self, other)
        return self.tape._emit("add_c", self, const=other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Node):
            return self.tape._emit("sub", self, other)
        return self.tape._emit("sub_c", self, const=other)

    def __rsub__(self, other):
        return self.tape._emit("rsub_c", self, const=other)

    def __mul__(self, other):
        if isinstance(other, Node):
            return self.tape._emit("mul", self, other)
        return self.tape._emit("mul_c", self, const=other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Node):
            return self.tape._emit("div", self, other)
        return self.tape._emit("div_c", self, const=other)

    def __neg__(self):
        return self.tape._emit("neg", self)

    def _no_branching(self, *_):
        raise TypeError("a recorded callback cannot compare or test "
                        "its inputs")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _no_branching
    __bool__ = _no_branching


class Tape:
    """A callback's operations on ``n_in`` inputs, recorded once for
    batches of ``batch`` points and replayed by :meth:`evaluate`; its
    ``n_out`` outputs are as many as the callback returned.

    ``name`` labels the ``TypeError`` raised when the callback uses an
    operation a tape cannot record.
    """

    def __init__(self, fun, n_in, batch, name):
        self.n_in = n_in
        self.batch = batch
        self._shape = (batch, max(n_in, 1))  # of a value or its derivatives
        self._ops = []  # (rule, operand slots + output slot, constant)
        self._n_slots = n_in
        consts = {}  # slot -> an output that is a constant
        outputs = []
        try:
            for y in fun([Node(self, j) for j in range(n_in)]):
                if isinstance(y, Node):
                    outputs.append(y.slot)
                else:
                    consts[self._n_slots] = self._const(y)
                    outputs.append(self._n_slots)
                    self._n_slots += 1
        except TypeError as exc:
            raise TypeError(f"{name}: {exc}") from exc
        self.n_out = len(outputs)
        buffer = self._allocate(outputs, list(consts))
        self._slots = np.zeros((max(buffer.values(), default=-1) + 1, 2)
                               + self._shape)
        self._flat = self._slots.reshape(-1)
        for j in range(n_in):
            self._slots[j, 1, :, j] = 1.0
        for s, c in consts.items():
            self._slots[buffer[s], 0] = c
        self._outputs = np.array([buffer[s] for s in outputs], dtype=int)
        self._tmp = np.empty((2,) + self._shape)
        self._col = np.empty((2, batch))
        self._steps = []
        for rule, slots, const in self._ops:
            views = [self._slots[buffer[s]] for s in slots]
            self._steps += _RULES[rule](self, *views, const)

    def _allocate(self, outputs, consts):
        """The buffer of each slot.

        A slot's buffer is reused once no later operation reads the slot;
        the inputs, the constant outputs and the outputs keep theirs.  An
        operation's output never shares a buffer with its operands.
        """
        n_in, n_ops = self.n_in, len(self._ops)
        last = {}  # slot -> last operation that reads it
        for i, (_, slots, _) in enumerate(self._ops):
            for s in slots:
                last[s] = i
        for s in list(range(n_in)) + consts + outputs:
            last[s] = n_ops
        buffer = {s: b for b, s in enumerate(list(range(n_in)) + consts)}
        free, n_buffers = [], len(buffer)
        for i, (_, slots, _) in enumerate(self._ops):
            if free:
                buffer[slots[-1]] = free.pop()
            else:
                buffer[slots[-1]], n_buffers = n_buffers, n_buffers + 1
            free += [buffer[s] for s in set(slots) if last[s] == i]
        return buffer

    # -- recording ------------------------------------------------------------

    def _const(self, c):
        """A constant, which must be one number."""
        c = np.asarray(c, dtype=float)
        if c.ndim != 0:
            raise TypeError(f"a constant must be one number, not an array "
                            f"of shape {c.shape}")
        return c

    def _emit(self, rule, *args, const=None):
        if const is not None:
            const = self._const(const)
        out = Node(self, self._n_slots)
        self._ops.append((rule, [a.slot for a in args] + [out.slot], const))
        self._n_slots += 1
        return out

    # -- replay ----------------------------------------------------------------

    def evaluate(self, local):
        """Replay at a (batch, n_in) array of points.

        Returns the flat buffer of every slot, which the next replay
        overwrites: :meth:`outputs` copies the outputs' values and
        derivatives out of it, and :meth:`positions` says where they are
        in it, so that a caller can gather them wherever it needs them.
        """
        self._slots[: self.n_in, 0] = local.T[:, :, None]
        for step in self._steps:
            step()
        return self._flat

    def outputs(self, flat):
        """Values (batch, m) and derivatives (batch, m, n_in) of the m
        outputs, copied out of the flat slot buffer ``flat``."""
        out = flat.reshape(self._slots.shape)[self._outputs]
        return (out[:, 0, :, 0].T.copy(),
                out[:, 1, :, : self.n_in].transpose(1, 0, 2).copy())

    def positions(self):
        """Where a replay's flat slot buffer holds the outputs' values and
        derivatives, as index arrays shaped like :meth:`outputs`' copies."""
        return self.outputs(np.arange(self._flat.size))


# -- rules: each returns the numpy calls that fill the output slot ------------
#
# A slot is one (2, batch, width) array: [0] holds the value in every
# column, [1] the derivatives with respect to the inputs (width is n_in,
# or 1 without inputs).  Keeping the value in every column makes each
# product with it one numpy call on equal, contiguous shapes, the
# cheapest kind, and makes a linear rule one call over the whole slot; a
# transcendental function is taken of one column and copied across.
# Each column of a value is computed by the same formula from the same
# numbers, so it holds the same bits.  Adding -0.0 or subtracting +0.0
# leaves a derivative's bits unchanged, the sign of a zero included, so
# a shift by a constant is one call too.


def _shift(t, c, zero):
    """[c, zero] in the shape of a slot."""
    vec = np.empty((2,) + t._shape)
    vec[0], vec[1] = c, zero
    return vec


def _add(t, a, b, c, k):
    return [partial(np.add, a, b, c)]


def _sub(t, a, b, c, k):
    return [partial(np.subtract, a, b, c)]


def _mul(t, a, b, c, k):
    # value a*b; derivatives b·da + a·db
    return [partial(np.multiply, a[0], b[0], c[0]),
            partial(np.multiply, a[1], b[0], c[1]),
            partial(np.multiply, b[1], a[0], t._tmp[0]),
            partial(np.add, c[1], t._tmp[0], c[1])]


def _div(t, a, b, c, k):
    # inv = 1/b; value a*inv; derivatives inv·da - (a*inv*inv)·db
    inv, q = t._tmp
    return [partial(np.divide, 1.0, b[0], inv),
            partial(np.multiply, a[0], inv, c[0]),
            partial(np.multiply, a[1], inv, c[1]),
            partial(np.multiply, c[0], inv, q),
            partial(np.multiply, b[1], q, q),
            partial(np.subtract, c[1], q, c[1])]


def _add_c(t, a, c, k):
    return [partial(np.add, a, _shift(t, k, -0.0), c)]


def _sub_c(t, a, c, k):
    return [partial(np.subtract, a, _shift(t, k, 0.0), c)]


def _rsub_c(t, a, c, k):
    return [partial(np.subtract, _shift(t, k, -0.0), a, c)]


def _mul_c(t, a, c, k):
    return [partial(np.multiply, a, k, c)]


def _div_c(t, a, c, k):
    return [partial(np.divide, a, k, c)]


def _neg(t, a, c, k):
    return [partial(np.negative, a, c)]


def _sin(t, a, c, k):
    v, d = t._col
    return [partial(np.sin, a[0, :, 0], v),
            partial(np.copyto, c[0], v[:, None]),
            partial(np.cos, a[0, :, 0], d),
            partial(np.multiply, a[1], d[:, None], c[1])]


def _cos(t, a, c, k):
    v, d = t._col
    return [partial(np.cos, a[0, :, 0], v),
            partial(np.copyto, c[0], v[:, None]),
            partial(np.sin, a[0, :, 0], d),
            partial(np.negative, d, d),
            partial(np.multiply, a[1], d[:, None], c[1])]


def _sqrt(t, a, c, k):
    v, d = t._col
    value = a[0, :, 0]

    def check():
        if np.any(value < 0):
            raise ValueError(_SQRT_NEGATIVE)

    return [check,
            partial(np.sqrt, value, v),
            partial(np.copyto, c[0], v[:, None]),
            partial(np.divide, 0.5, v, d),
            partial(np.multiply, a[1], d[:, None], c[1])]


_RULES = {
    "add": _add, "sub": _sub, "mul": _mul, "div": _div,
    "add_c": _add_c, "sub_c": _sub_c, "rsub_c": _rsub_c,
    "mul_c": _mul_c, "div_c": _div_c,
    "neg": _neg, "sin": _sin, "cos": _cos, "sqrt": _sqrt,
}


# -- elementary functions -----------------------------------------------------


def sin(x):
    if isinstance(x, Node):
        return x.tape._emit("sin", x)
    return np.sin(x)


def cos(x):
    if isinstance(x, Node):
        return x.tape._emit("cos", x)
    return np.cos(x)


def sqrt(x):
    if isinstance(x, Node):
        return x.tape._emit("sqrt", x)
    if np.any(np.asarray(x) < 0):
        raise ValueError("sqrt of negative value")
    return np.sqrt(x)


def jacobian(f, x):
    """Jacobian of a vector function at one point.

    Row i holds the gradient of the i-th output with respect to x.
    """
    x = np.asarray(x, dtype=float)
    name = getattr(f, "__name__", type(f).__name__)
    tape = Tape(f, x.size, 1, name)
    return tape.outputs(tape.evaluate(x[None, :]))[1][0]
