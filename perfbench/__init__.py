"""Benchmark of the dicke_metrology pipeline; run it with `python3 perfbench/run.py`."""
