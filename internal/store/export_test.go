package store

import "io"

// RewriteConfigSection copies the snapshot container read from r to w
// with its config section's payload replaced, through the container
// writer Write uses: the seam for tests of config sections written in
// an older shape.
func RewriteConfigSection(w io.Writer, r io.Reader, payload []byte) error {
	fingerprint, createdAt, sections, err := readContainer(r)
	if err != nil {
		return err
	}
	for i := range sections {
		if sections[i].kind == kindConfig {
			sections[i].payload = payload
		}
	}
	return writeContainer(w, fingerprint, createdAt, sections)
}
