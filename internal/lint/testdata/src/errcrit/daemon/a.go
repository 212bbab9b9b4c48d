// Package daemon exercises the errcrit rule's coverage of the dcsd assembly
// (the "daemon" path segment entered scope when the pipeline left cmd/dcsd,
// where commands were exempt): the assembly owns the journal's Close, the
// listeners' Closes and the event-log file, and it runs them at shutdown —
// the last moment a buffered write can still report that it never landed.
package daemon

import (
	"io"
	"log"
	"os"
)

// shutdown drops every close error the way `defer x.Close()` in a main()
// used to: a journal whose final sync failed looks exactly like one that
// closed clean.
func shutdown(journal, listener io.Closer, events *os.File) {
	defer journal.Close() // want `errcrit: error from journal\.Close discarded by defer`
	listener.Close()      // want `errcrit: error from listener\.Close discarded`
	events.Sync()         // want `errcrit: error from events\.Sync discarded`
	_ = events.Close()    // want `errcrit: error from events\.Close assigned to _`
}

// closeLogged is the approved shape: the assembly has no caller to return a
// shutdown error to, so it says what failed.
func closeLogged(what string, c io.Closer) {
	if err := c.Close(); err != nil {
		log.Printf("%s close: %v", what, err)
	}
}
