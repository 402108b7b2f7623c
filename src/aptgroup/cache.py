"""Empty: the package keeps no on-disk cache.

A cache file could only be trusted after every table in it had been
recomputed, so it never saved work, and the cache was removed.  Every table
lives in the process that builds it.  The module stays importable because
the benchmark harness (bench/harness.py) imports each package module by name.
"""
