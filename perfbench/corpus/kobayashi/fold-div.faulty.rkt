(module fold-div
  (provide [main (-> (listof integer?) integer?)])
  (define (foldl f acc xs)
    (if (null? xs) acc (foldl f (f acc (car xs)) (cdr xs))))
  (define (main xs)
    (foldl (lambda (a x) (/ a x)) 100 xs)))
