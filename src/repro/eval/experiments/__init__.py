"""The derived experiment suite (one module per derived table or figure)."""
