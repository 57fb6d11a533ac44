"""Backend registry: the one place an LP solver is named.

Every backend is a callable ``solve(model, **options)`` returning an
:class:`~repro.lp.model.LPSolution`, registered under a name in a
:class:`BackendRegistry`.  The default registry ships one entry:

``"highs"``
    :func:`repro.lp.scipy_backend.solve_highs` — HiGHS through
    :func:`scipy.optimize.linprog`; sparse, handles the large LPs generated
    from application graphs, provides duals/reduced costs.

Adding a solver is one decorator::

    from repro.lp.backends import default_registry

    @default_registry.register("glpk", description="GLPK via swiglpk")
    def solve_glpk(model, **options):
        ...
        return LPSolution(...)

after which ``model.solve(backend="glpk")`` uses it.  The layers above the
model (:class:`~repro.core.lp_builder.GraphLP`, the analyzer, placement, the
CLI) always solve with ``"highs"``; a test swaps that solver out with
``register("highs", replace=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .model import LPModel, LPSolution

__all__ = ["BackendSpec", "BackendRegistry", "default_registry"]


#: ``solve(model, **options) -> LPSolution``
SolveFn = Callable[..., LPSolution]


@dataclass(frozen=True)
class BackendSpec:
    """A registered backend: its name, solve callable and description."""

    name: str
    solve: SolveFn
    description: str = ""


class BackendRegistry:
    """Named collection of LP solver backends with a uniform solve protocol."""

    def __init__(self) -> None:
        self._specs: dict[str, BackendSpec] = {}

    # -- registration ---------------------------------------------------------

    def register(
        self, name: str, *, description: str = "", replace: bool = False
    ) -> Callable[[SolveFn], SolveFn]:
        """Decorator registering ``fn`` as backend ``name``."""
        if not name:
            raise ValueError("backend name must be non-empty")

        def decorator(fn: SolveFn) -> SolveFn:
            if name in self._specs and not replace:
                raise ValueError(
                    f"backend {name!r} is already registered; pass replace=True to override"
                )
            self._specs[name] = BackendSpec(name=name, solve=fn, description=description)
            return fn

        return decorator

    def unregister(self, name: str) -> None:
        """Remove backend ``name`` (KeyError if absent)."""
        del self._specs[name]

    # -- lookup ---------------------------------------------------------------

    def get(self, name: str) -> BackendSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ValueError(
                f"unknown LP backend {name!r}; registered backends: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[BackendSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    # -- solving ----------------------------------------------------------------

    def solve(self, model: LPModel, backend: str = "highs", **options: object) -> LPSolution:
        """Solve ``model`` with the named backend."""
        return self.get(backend).solve(model, **options)


#: The registry used by :meth:`LPModel.solve` and everything above it.
default_registry = BackendRegistry()


@default_registry.register(
    "highs", description="scipy.optimize.linprog with the HiGHS solver (sparse, scalable)"
)
def _solve_highs_backend(model: LPModel, **options: object) -> LPSolution:
    from .scipy_backend import solve_highs

    return solve_highs(model, **options)
