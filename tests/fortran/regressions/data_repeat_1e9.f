C     one card asking for a billion DATA values: exhausts memory
      PROGRAM DATARP
      REAL A(10)
      DATA A/1000000000*0.0/
      END
