"""Minimal reverse-mode autodiff over float64 numpy arrays.

Supports exactly what the predictor stack needs: dense matmul (the left
operand may be a stack of matrices), elementwise arithmetic with bias-style
broadcasting, relu/tanh/sigmoid/exp/log, slicing, concatenation, transposes,
reshapes and reductions. Backward walks the tape in reverse topological order
and accumulates into .grad buffers.
"""

import numpy as np


class ShapeMismatch(ValueError):
    pass


def _unbroadcast(grad, shape):
    """Sum grad over axes that were broadcast up from `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # numpy defers every binary operator to Tensor, so an ndarray on the left
    # reaches the reflected method and the result joins the tape
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.requires_grad else 'no'})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _lift(value):
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(data, parents, backward_fn):
        """Output tensor of an op; it joins the tape only when a parent
        requires grad. Runs once per op, so the test is a plain loop rather
        than any() over a generator."""
        out = Tensor(data)
        for parent in parents:
            if parent.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward_fn
                break
        return out

    def __add__(self, other):
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.data, (self,), lambda grad: (-grad,))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)

        def backward(grad):
            return (_unbroadcast(grad * other.data, self.shape),
                    _unbroadcast(grad * self.data, other.shape))

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)

        def backward(grad):
            return (_unbroadcast(grad / other.data, self.shape),
                    _unbroadcast(-grad * self.data / other.data**2, other.shape))

        return self._make(self.data / other.data, (self, other), backward)

    def __matmul__(self, other):
        other = self._lift(other)
        if self.data.shape[-1] != other.data.shape[0]:
            raise ShapeMismatch(f"matmul {self.data.shape} @ {other.data.shape}")

        def backward(grad):
            # a stacked (..., m, k) left operand shares `other` across its
            # leading axes: sum their contributions in one product
            k, n = other.data.shape[0], grad.shape[-1]
            return (grad @ other.data.T, self.data.reshape(-1, k).T @ grad.reshape(-1, n))

        return self._make(self.data @ other.data, (self, other), backward)

    def __rmatmul__(self, other):
        return self._lift(other) @ self

    def __getitem__(self, key):
        out = self.data[key]
        # basic indexing returns a view and picks no entry twice; an index
        # array copies, and add.at sums the entries it repeats
        view = np.may_share_memory(out, self.data)

        def backward(grad):
            full = np.zeros_like(self.data)
            if view:
                full[key] = grad
            else:
                np.add.at(full, key, grad)
            return (full,)

        return self._make(out, (self,), backward)

    @property
    def T(self):
        return self._make(self.data.T, (self,), lambda grad: (grad.T,))

    def transpose(self, *axes):
        inverse = np.argsort(axes)
        return self._make(self.data.transpose(axes), (self,),
                          lambda grad: (grad.transpose(inverse),))

    def reshape(self, *shape):
        old = self.data.shape
        return self._make(self.data.reshape(*shape), (self,),
                          lambda grad: (grad.reshape(old),))

    def relu(self):
        mask = self.data > 0
        return self._make(np.where(mask, self.data, 0.0), (self,),
                          lambda grad: (grad * mask,))

    def tanh(self):
        out_data = np.tanh(self.data)
        return self._make(out_data, (self,), lambda grad: (grad * (1 - out_data**2),))

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return self._make(out_data, (self,), lambda grad: (grad * out_data * (1 - out_data),))

    def exp(self):
        out_data = np.exp(self.data)
        return self._make(out_data, (self,), lambda grad: (grad * out_data,))

    def log(self):
        return self._make(np.log(self.data), (self,), lambda grad: (grad / self.data,))

    def square(self):
        return self._make(self.data**2, (self,), lambda grad: (grad * 2 * self.data,))

    def sum(self):
        shape = self.data.shape
        return self._make(np.sum(self.data), (self,),
                          lambda grad: (np.broadcast_to(grad, shape).copy(),))

    def mean(self):
        n = self.data.size
        shape = self.data.shape
        return self._make(np.mean(self.data), (self,),
                          lambda grad: (np.broadcast_to(grad / n, shape).copy(),))

    def detach(self):
        """Value-equal tensor cut out of the graph."""
        return Tensor(self.data.copy())

    # -- backward ------------------------------------------------------------

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            grad = np.ones_like(self.data)
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        grads = {id(self): np.asarray(grad, dtype=np.float64)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None or not node._parents:
                # leaf: accumulate into the persistent gradient buffer
                node.grad = g if node.grad is None else node.grad + g
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if not parent.requires_grad or pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg


def concat(tensors, axis=0):
    tensors = [Tensor._lift(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad):
        return tuple(np.split(grad, np.cumsum(sizes)[:-1], axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)
