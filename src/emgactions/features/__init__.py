"""Feature extraction: five modalities, registry, assembly, CSV export."""
