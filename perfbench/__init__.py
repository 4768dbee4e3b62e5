"""End-to-end benchmark of the value-prediction simulator (see README.md)."""
