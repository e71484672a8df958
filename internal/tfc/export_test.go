package tfc

import "dra4wfms/internal/document"

// History exposes the server's opener-backed history view to the external
// tests in this directory.
func (s *Server) History(work *document.Document) (*document.Document, int, error) {
	return s.history(work)
}
