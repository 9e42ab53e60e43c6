"""Chaos tests: seeded crash injection and recovery."""
