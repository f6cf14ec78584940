"""Reference implementations the differential tests compare the engine
against — deliberately naive, on Python tuples, sets and dicts, and
imported by no module under ``src/``.

* :mod:`oracles.ej` — EJ evaluation: dict/set Yannakakis (Boolean,
  counting DP, full reducer), the trie generic join, tuple bag
  materialisation, and the three ``ej`` entry points dispatched over
  them.
* :mod:`oracles.reduction` — the forward reduction built one input
  tuple at a time (rows + refcounts, no encoding memo, no code arrays)
  and the dict/set row patcher for deltas.

``core/baselines.py`` (naive backtracking over the *IJ* query) stays in
``src/``: it is the production ``naive`` strategy.
"""
