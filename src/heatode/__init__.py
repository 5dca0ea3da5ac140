"""Exact-arithmetic toolkit for the ODE hierarchy attached to the heat equation.

The package constructs the family of nonlinear ordinary differential
equations whose solutions supply separated solutions of the heat
equation, builds the associated series (including the Weierstrass sigma
expansion), exposes the unimodular group action on all of it, and
verifies every identity exactly where exact arithmetic applies and
numerically elsewhere.  See the README for the command-line interface.

The library is used through its submodules (algebra, jets, series,
systems, mobius, heat, suites, cli); this file imports none of them.
"""
