"""perfbench — the repository's gated benchmark (see README.md here)."""
