"""Test-only panel helper: the sub-panel of one stratum.

The package reaches a stratum through ``TwoPeriodPanel.stratum_mask``
alone; the tests use whole sub-panels to check per-stratum results
against the unstratified functions run on that stratum's units.
"""

from itertools import compress

import numpy as np

from antebounds.panel import TwoPeriodPanel


def restrict_to_stratum(panel: TwoPeriodPanel, label) -> TwoPeriodPanel:
    """The units of stratum ``label``, without a stratum column; the panel
    itself when it has none (``label`` must then be ``"<all>"``)."""
    mask = panel.stratum_mask(label)
    if panel.strata is None:
        return panel
    ids = panel.unit_ids
    return TwoPeriodPanel(
        unit_ids=ids[mask] if isinstance(ids, np.ndarray) else tuple(compress(ids, mask)),
        y0=panel.y0[mask],
        y1=panel.y1[mask],
        d=panel.d[mask],
    )
