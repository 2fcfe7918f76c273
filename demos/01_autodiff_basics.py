"""A tour of the reverse-mode autodiff core.

Every operation records its inputs and a backward closure on a tape; calling
.backward() on a scalar loss walks the graph in reverse topological order,
accumulates gradients into the leaves (the tensors made with
requires_grad=True) and frees the graph as it goes, so each graph serves one
backward and a new loss needs a fresh forward.  This script builds a few
small graphs and compares the analytic gradients against central finite
differences.
"""

import numpy as np

import fuzzykan.tensor as T
from fuzzykan.checks import finite_difference_grad, relative_error

rng = np.random.default_rng(0)

# --- a scalar chain: d/dx sum((2x + 3)^2) ----------------------------------
x = T.Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
y = T.add(T.mul(x, 2.0), 3.0)
loss = T.reduce_sum(T.mul(y, y))
loss.backward()
print("analytic grad:", x.grad)
print("closed form:  ", 4.0 * (2.0 * x.data + 3.0))

# --- fan-out: a tensor used twice accumulates both contributions -----------
a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
out = T.reduce_sum(T.add(T.mul(a, 2.0), T.mul(a, 3.0)))
out.backward()
print("fan-out grad (expect [5, 5]):", a.grad)

# --- a conv + softmax-CE graph checked against finite differences ----------
images = T.Tensor(rng.uniform(-1, 1, (2, 1, 6, 6)))
kernels = T.Tensor(rng.uniform(-0.5, 0.5, (3, 1, 3, 3)), requires_grad=True)
bias = T.Tensor(np.zeros(3), requires_grad=True)
labels = rng.integers(0, 3, 2)


def build_loss():
    h = T.conv2d(images, kernels, bias)
    h = T.activate("tanh", h)
    h = T.reduce_mean(T.reshape(h, (2, 3, -1)), axis=2)
    return T.softmax_cross_entropy(h, labels)


loss = build_loss()
loss.backward()
numeric = finite_difference_grad(lambda: float(build_loss().data), kernels)
print("conv kernel grad rel err:", relative_error(kernels.grad, numeric))
