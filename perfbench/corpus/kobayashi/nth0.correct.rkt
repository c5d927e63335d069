(module nth0
  (provide [main (-> (and/c (listof integer?) pair?) integer?)])
  (define (nth n xs) (if (zero? n) (car xs) (nth (- n 1) (cdr xs))))
  (define (main xs) (nth 0 xs)))
