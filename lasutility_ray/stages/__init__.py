"""Ray Data stages: batch transforms (task-based; broadcast state
ships with the callable) and wide (groupby) steps. Every hot path is
vectorized Arrow/numpy; no per-row Python in map stages. Nothing here
calls ``ray.init()``.
"""
