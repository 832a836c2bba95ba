"""Paper-path benchmark for the PowerPlay reproduction (see README.md)."""
