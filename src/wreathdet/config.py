"""Size caps for group enumerations.

All caps are explicit: exceeding one raises CapExceededError, never a silent
truncation. Each enumeration reads its cap here when it starts; nothing in
the library writes to this module.
"""

# Full symmetric-group enumerations run over S_N with N at most this.
FACTORIAL_CAP = 12

# Young-subgroup sums run over S_k^n with (k!)^n at most this.
YOUNG_SUBGROUP_CAP = 10**7

# Standard-tableaux enumeration caps at this many cells.
TABLEAU_CELL_CAP = 20

# Largest Xi_{n,k} order the scan will build.
XI_ORDER_CAP = 200
