"""Block-aware caching laboratory: instances, online algorithms, rounding,
and exact offline oracles.  Each public name is imported from its module."""
