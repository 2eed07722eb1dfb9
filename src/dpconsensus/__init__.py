"""Differentially private bipartite consensus over signed networks.

Simulates and analyzes a consensus protocol where agents on a structurally
balanced signed graph exchange Laplace-perturbed states with decaying
step-sizes, providing convergence diagnostics, closed-form differential
privacy accounting, and joint accuracy/privacy parameter design.
"""
