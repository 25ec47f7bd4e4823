"""Task harness: ingestion, simulated world, episode loop, metrics, CLI."""
