"""The benchmark problems: three manufactured parabolic cases and two
reaction-diffusion systems (FitzHugh-Nagumo and Schnakenberg).

Each builder takes the grid size N and the spatial order and returns a
PDEProblem bundling the grid, the semi-discrete system, the initial field and
(when known) the exact solution; the FHN_* and SCHNAKENBERG_* constants are
the two systems' model parameters.
"""

from dataclasses import dataclass

import numpy as np

from .pde2d import CoefficientField, Grid2D, SemiDiscreteSystem

FHN_DIFFUSION = (1.0, 0.0)
FHN_A, FHN_C, FHN_D, FHN_DELTA = 0.1, 1.0, 0.5, 0.005
SCHNAKENBERG_DIFFUSION = (0.05, 1.0)
SCHNAKENBERG_KAPPA, SCHNAKENBERG_A, SCHNAKENBERG_B = 100.0, 0.1305, 0.7695


@dataclass(frozen=True)
class PDEProblem:
    grid: Grid2D
    system: SemiDiscreteSystem
    initial: np.ndarray
    exact: object            # exact(t) -> field, or None

    def split_ivp(self, T):
        return self.system.split_ivp(self.initial, (0.0, float(T)))


def example1(N=45, order=6):
    """Heat equation, a = 1, exact solution (1-y)*exp(t+x), Dirichlet walls."""
    grid = Grid2D(x_span=(-1.0, 1.0), y_span=(-1.0, 1.0), N_x=N, N_y=N,
                  bc="dirichlet")

    def g(x, y, t):
        return (1.0 - y) * np.exp(t + x)

    system = SemiDiscreteSystem(grid, 1.0, order=order, boundary=g)
    X, Y = grid.mesh()

    def exact(t):
        return (1.0 - Y) * np.exp(t + X)

    return PDEProblem(grid=grid, system=system, initial=exact(0.0), exact=exact)


def example2(N=45, order=6):
    """Variable-coefficient heat equation with periodic boundaries.

    a(x,y) = 2 + 0.5*sin(pi*(4x+y)) on [-1,1]^2, where both the coefficient
    and the initial data sin(2*pi*(x+y)) are fully periodic.
    """
    grid = Grid2D(x_span=(-1.0, 1.0), y_span=(-1.0, 1.0), N_x=N, N_y=N,
                  bc="periodic")
    coeff = CoefficientField.from_callables(
        grid,
        a=lambda x, y: 2.0 + 0.5 * np.sin(np.pi * (4 * x + y)),
        a_x=lambda x, y: 2.0 * np.pi * np.cos(np.pi * (4 * x + y)),
        a_y=lambda x, y: 0.5 * np.pi * np.cos(np.pi * (4 * x + y)))
    system = SemiDiscreteSystem(grid, coeff, order=order)
    X, Y = grid.mesh()
    initial = np.sin(2 * np.pi * (X + Y))
    return PDEProblem(grid=grid, system=system, initial=initial, exact=None)


def example3(N=45, order=6):
    """Heat equation with a nonlinear source, exact solution
    exp(-t)*cos(pi*x)*cos(pi*y), boundary data taken from it."""
    grid = Grid2D(x_span=(-1.0, 1.0), y_span=(-1.0, 1.0), N_x=N, N_y=N,
                  bc="dirichlet")
    X, Y = grid.mesh()
    CC = np.cos(np.pi * X) * np.cos(np.pi * Y)

    def exact(t):
        return np.exp(-t) * CC

    def g(x, y, t):
        return np.exp(-t) * np.cos(np.pi * x) * np.cos(np.pi * y)

    def source(t, u):
        return (-u * u + np.exp(-2.0 * t) * CC * CC
                + (2.0 * np.pi**2 - 1.0) * np.exp(-t) * CC)

    def source_jacobian(t, u):
        return -2.0 * u

    system = SemiDiscreteSystem(grid, 1.0, order=order, boundary=g,
                                source=source, source_jacobian=source_jacobian)
    return PDEProblem(grid=grid, system=system, initial=exact(0.0), exact=exact)


def fhn(N=200, order=6):
    """FitzHugh-Nagumo reaction-diffusion system on [-20,20]^2, periodic.

    Activator u diffuses; the inhibitor v does not (FHN_DIFFUSION).  The
    cubic local dynamics are h(u,v) = C*u*(1-u)*(u-a) - v scaled by 1/delta,
    and g(u,v) = u - d*v.
    """
    a, C, d, delta = FHN_A, FHN_C, FHN_D, FHN_DELTA
    grid = Grid2D(x_span=(-20.0, 20.0), y_span=(-20.0, 20.0), N_x=N, N_y=N,
                  bc="periodic")

    def source(t, U):
        u, v = U
        h = C * u * (1.0 - u) * (u - a) - v
        return np.stack([h / delta, u - d * v])

    def source_jacobian(t, U):
        u = U[0]
        J = np.empty((2, 2) + u.shape, dtype=np.result_type(U, 1.0))
        J[0, 0] = C * (-3.0 * u * u + 2.0 * (1.0 + a) * u - a) / delta
        J[0, 1] = -1.0 / delta
        J[1, 0] = 1.0
        J[1, 1] = -d
        return J

    system = SemiDiscreteSystem(grid, FHN_DIFFUSION, order=order,
                                source=source, source_jacobian=source_jacobian)
    X, Y = grid.mesh()
    bump = (1.0 / (1.0 + np.exp(4.0 * (np.abs(X) - 5.0))) ** 2
            - 1.0 / (1.0 + np.exp(4.0 * (np.abs(X) - 1.0))) ** 2)
    u0 = np.where((X < 0) | (Y > 5), 0.0, bump)
    v0 = np.where((X < 1) & (Y > -10), 0.15, 0.0)
    return PDEProblem(grid=grid, system=system, initial=np.stack([u0, v0]), exact=None)


def schnakenberg(N=200, order=6):
    """Schnakenberg activator-inhibitor system on the unit square, periodic.

    Kinetics kappa*(a - Ca + Ca^2*Ci) and kappa*(b - Ca^2*Ci).  Starts from
    the homogeneous steady state (a+b, b/(a+b)^2) with a small Gaussian bump
    on the activator.
    """
    kappa, a, b = SCHNAKENBERG_KAPPA, SCHNAKENBERG_A, SCHNAKENBERG_B
    grid = Grid2D(x_span=(0.0, 1.0), y_span=(0.0, 1.0), N_x=N, N_y=N,
                  bc="periodic")

    def source(t, U):
        Ca, Ci = U
        return np.stack([kappa * (a - Ca + Ca * Ca * Ci),
                         kappa * (b - Ca * Ca * Ci)])

    def source_jacobian(t, U):
        Ca, Ci = U
        J = np.empty((2, 2) + Ca.shape, dtype=np.result_type(U, 1.0))
        J[0, 0] = kappa * (-1.0 + 2.0 * Ca * Ci)
        J[0, 1] = kappa * Ca * Ca
        J[1, 0] = -2.0 * kappa * Ca * Ci
        J[1, 1] = -J[0, 1]
        return J

    system = SemiDiscreteSystem(grid, SCHNAKENBERG_DIFFUSION, order=order,
                                source=source, source_jacobian=source_jacobian)
    X, Y = grid.mesh()
    Ca0 = a + b + 1e-3 * np.exp(-100.0 * ((X - 1.0 / 3.0) ** 2
                                          + (Y - 0.5) ** 2))
    Ci0 = np.full(grid.shape, b / (a + b) ** 2)
    return PDEProblem(grid=grid, system=system, initial=np.stack([Ca0, Ci0]), exact=None)


PROBLEM_BUILDERS = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
    "fhn": fhn,
    "schnakenberg": schnakenberg,
}
