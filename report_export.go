package cosparse

import (
	"encoding/json"
	"io"
)

// WriteJSON serializes the report (including every iteration) for
// external tooling — plotting the Fig. 9-style traces, dashboards, etc.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
