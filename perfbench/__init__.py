"""End-to-end and per-layer benchmark of the DeNova reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root; see run.py.
"""
