"""Reference oracle: the scalar autodiff tape and the model built on it.

`tape` differentiates any expression built from its ops, to any order.
`graph` builds the networks, the field losses, the inner loop and the
closed-form Hamiltonians on it.  The tests compare the vectorized kernels
of `hamlearn` with these independent routes; the package never imports
them.
"""
