"""Variational inference: amortized encoders, the longitudinal objective with
exact hand-derived gradients, the training loop, and the per-stage topic
extension."""
