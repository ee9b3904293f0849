"""Multi-class anomaly score distribution alignment toolkit."""
