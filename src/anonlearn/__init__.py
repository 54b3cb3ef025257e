"""anonlearn: learning dynamics in large anonymous games.

Finite-action games whose payoffs depend only on an agent's own action and
the population's action distribution, plus the machinery to study how simple
payoff-driven learners behave in them: best-reply dynamics, stage learners
and regret matching, mean-field and matching payoffs, churn, and a
deterministic experiment engine with a CLI.  The user API is each module's
__all__, republished here; the array kernels over a population are in
anonlearn.learners, the random streams and churn's draws in anonlearn.streams.
"""

from . import config, core, dynamics, engine, games
from .core import *
from .dynamics import *
from .games import *
from .engine import *
from .config import *

__version__ = "0.1.0"

__all__ = core.__all__ + dynamics.__all__ + games.__all__ + engine.__all__ + config.__all__
