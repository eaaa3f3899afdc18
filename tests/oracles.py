"""The hypothesis oracles of one test module, for tier-1 and for longer runs.

An oracle module makes one ``Oracles``, decorates each hypothesis check
with it and runs ``campaign`` as a script::

    _oracle = Oracles()

    @_oracle(300, st.data())
    def test_fast_path_equals_reference(data):
        ...

    if __name__ == "__main__":
        _oracle.campaign(1000)

Under pytest each check runs on its tier-1 examples.
``PYTHONPATH=src:tests python tests/<module>.py N`` runs each on N fresh
examples instead (the ``campaign`` default without N), without shrinking:
a failing campaign reports the first example that failed.
"""
from __future__ import annotations

import sys
from typing import Any, Callable

from hypothesis import Phase, given, settings

# A campaign's phases: every default one but the shrink, and the explain
# that follows it.
CAMPAIGN_PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


class Oracles:
    """A module's hypothesis checks, each kept undecorated with its
    positional and keyword strategies."""

    def __init__(self) -> None:
        self.checks: list[tuple[Callable[..., None], tuple, dict[str, Any]]] = []

    def __call__(self, max_examples: int, *strategies: Any, **named: Any):
        """``given(*strategies, **named)`` at tier-1's ``max_examples``,
        registered for ``campaign``."""
        def register(check):
            self.checks.append((check, strategies, named))
            return settings(max_examples=max_examples, deadline=None)(
                given(*strategies, **named)(check))
        return register

    def campaign(self, examples: int) -> None:
        """Every check on N fresh examples, N from the command line or
        ``examples``; the first failure raises, unshrunk."""
        examples = int(sys.argv[1]) if len(sys.argv) > 1 else examples
        for check, strategies, named in self.checks:
            settings(max_examples=examples, deadline=None, database=None,
                     phases=CAMPAIGN_PHASES)(given(*strategies, **named)(check))()
        print(f"{examples} examples each: {', '.join(check.__name__ for check, *_ in self.checks)}"
              " equal their oracles")
