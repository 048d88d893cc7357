// The interactive example demonstrates the portal feature the paper calls
// out — "The web interface allows the user to monitor the standard streams,
// and even provide input, if so the target application requires it": a
// number-guessing program runs on a cluster node while this client watches
// its output and feeds it guesses over the jobs API, exactly as the browser
// UI does.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	ccportal "repro"
)

const guessingGame = `
func main() {
	var secret = random(100) + 1;
	println("I picked a number between 1 and 100.");
	var tries = 0;
	while (true) {
		println("your guess?");
		var line = readline();
		if (line == "") {
			println("no more input; the number was", secret);
			return;
		}
		var guess = atoi(line);
		tries = tries + 1;
		if (guess < secret) { println("higher"); }
		if (guess > secret) { println("lower"); }
		if (guess == secret) {
			println("correct in", tries, "tries!");
			return;
		}
	}
}
`

func main() {
	sys, err := ccportal.New(ccportal.DefaultConfig(), ccportal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()
	server := httptest.NewServer(sys.Handler())
	defer server.Close()

	client := ccportal.NewClient(server.URL)
	must(client.Register("player", "gamer-pass"))
	must(client.Login("player", "gamer-pass"))
	must(client.Upload("/guess.mc", []byte(guessingGame)))
	job, err := client.Submit("/guess.mc", "minic", 1, "")
	must(err)
	fmt.Println("game running as", job.ID)

	// Binary search against the program, reading its stream as we go —
	// the automated version of a student typing into the job monitor.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := client.Watch(ctx, job.ID)
	must(err)
	defer w.Close()
	lo, hi, guess := 1, 100, 0
	var partial string // an event can end mid-line; keep the tail for the next one
	for {
		ev, err := w.Next()
		must(err)
		if ev.Done {
			log.Fatalf("game ended (%s) before the number was found", ev.State)
		}
		partial += ev.Data
		for {
			i := strings.IndexByte(partial, '\n')
			if i < 0 {
				break
			}
			line := partial[:i]
			partial = partial[i+1:]
			fmt.Println("  program:", line)
			switch {
			case strings.Contains(line, "higher"):
				lo = guess + 1
			case strings.Contains(line, "lower"):
				hi = guess - 1
			case strings.Contains(line, "correct"):
				fmt.Println("solved it!")
				return
			case strings.Contains(line, "your guess?"):
				guess = (lo + hi) / 2
				fmt.Println("  player :", guess)
				must(client.SendInput(job.ID, strconv.Itoa(guess)+"\n"))
			}
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
