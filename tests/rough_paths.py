"""A helper of the lift, RDE and acceptance tests on ``Level2RoughPath``."""

from roughmix.gmfbm import TimeGrid
from roughmix.lift import Level2RoughPath


def restricted(rp: Level2RoughPath, i: int, j: int) -> Level2RoughPath:
    """``rp`` over its intervals i .. j - 1, on its grid from t_i shifted to
    start at 0, built through the checks of ``Level2RoughPath``."""
    return Level2RoughPath(
        grid=TimeGrid(rp.grid.points[i:j + 1] - rp.grid.points[i]),
        inc1=rp.inc1[i:j],
        inc2=rp.inc2[i:j],
    )
