"""Pipeline stages: map_batches transforms.

Every stage is Dataset-in/Dataset-out or an Arrow-batch callable; no stage
owns a Ray session. Stateful stages (signature computation, broadcast
probes) are callable instances that run as tasks and load their state at
the first batch.
"""
