"""Built-in analysis rules.

Importing this package registers every rule with the engine's registry.
To add a rule: write a module here with a ``@register_rule`` class and
import it below (see ``docs/static-analysis.md``).
"""

from repro.analysis.rules import (  # noqa: F401
    codec_symmetry,
    frame_symmetry,
    hygiene,
    io_hygiene,
    journal_hygiene,
    mechanism_hygiene,
    obs_hygiene,
    par_hygiene,
    state_machine,
    sync_protocol,
    uisr_coverage,
)
