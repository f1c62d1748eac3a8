"""Exception types shared across the package."""


class WealthsimError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(WealthsimError, ValueError):
    """Invalid model parameters. Carries every violation, not just the first."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NormalizationDegenerate(WealthsimError, ArithmeticError):
    """Total excess wealth collapsed below the representable threshold.

    Raised instead of silently producing infinities when the rescale factor
    would blow up. ``run_id`` / ``t`` identify where the collapse happened
    when the failure comes out of a simulation.
    """

    def __init__(self, total, threshold, run_id=None, t=None):
        self.total = total
        self.threshold = threshold
        self.run_id = run_id
        self.t = t
        where = ""
        if run_id is not None or t is not None:
            where = f" (run={run_id}, t={t})"
        super().__init__(
            f"total excess {total!r} below degeneracy threshold {threshold!r}{where}"
        )

    def __reduce__(self):
        # rebuilt from its fields, so it survives the trip back from a worker process
        return type(self), (self.total, self.threshold, self.run_id, self.t)


class DomainError(WealthsimError, ValueError):
    """Argument outside a function's mathematical domain."""


class DegenerateInput(WealthsimError, ValueError):
    """Statistic undefined for this input (e.g. Gini of an all-zero vector)."""


class GridTooCoarse(WealthsimError, ValueError):
    """Discretization grid cannot resolve the multiplier band."""


class NotConverged(WealthsimError, RuntimeError):
    """Iterative solve hit its iteration cap. Carries the last residual and,
    from an eigensolver, the 1-based index of the mode that failed."""

    def __init__(self, iterations, residual, mode=None):
        self.iterations = iterations
        self.residual = residual
        self.mode = mode
        of_mode = "" if mode is None else f" of mode {mode}"
        super().__init__(f"no convergence{of_mode} after {iterations} iterations "
                         f"(last residual {residual:.3e})")

    def __reduce__(self):
        return type(self), (self.iterations, self.residual, self.mode)


class NoOverlap(WealthsimError, ValueError):
    """Two distributions have disjoint supports; a distance is meaningless."""


class ParseError(ParameterError):
    """Config text rejected. ``problems`` lists every violation with line numbers."""

    def __str__(self):
        return "\n".join(self.problems)
