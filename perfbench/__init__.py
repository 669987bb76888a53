"""The repository benchmark: closed-loop experiment workloads, host and
model metrics, and a span tracer wrapped around the package's layers.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md``.
"""
